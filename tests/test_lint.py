"""reprolint: the engine, the rule pack, and the CLI."""

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    LintEngine,
    Severity,
    all_rules,
    load_config,
)
from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO = Path(__file__).resolve().parent.parent

# Each rule: (fixture stem, relpath the fixture pretends to live at).
# The relpath drives per-rule path scoping (clock exemptions, event
# paths, typed-API paths).
RULE_CASES = {
    "RL001": ("rl001", "src/repro/analysis/fixture.py"),
    "RL002": ("rl002", "src/repro/core/fixture.py"),
    "RL003": ("rl003", "src/repro/paging/fixture.py"),
    "RL004": ("rl004", "src/repro/experiments/fixture.py"),
    "RL005": ("rl005", "src/repro/obs/fixture.py"),
    "RL006": ("rl006", "src/repro/reliability/fixture.py"),
    "RL007": ("rl007", "src/repro/core/fixture.py"),
    "RL008": ("rl008", "src/repro/service/fixture.py"),
    "RL009": ("rl009", "src/repro/service/fixture.py"),
    "RL010": ("rl010", "src/repro/service/fixture.py"),
    "RL011": ("rl011", "src/repro/service/fixture.py"),
}


def _engine() -> LintEngine:
    return LintEngine(LintConfig(root=str(REPO)))


def _lint_fixture(name: str, relpath: str):
    source = (FIXTURES / f"{name}.py").read_text()
    return _engine().lint_source(relpath, source)


class TestRulePack:
    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_bad_fixture_is_caught(self, rule_id):
        stem, relpath = RULE_CASES[rule_id]
        findings = _lint_fixture(f"bad_{stem}", relpath)
        assert {f.rule for f in findings if f.rule == rule_id}, (
            f"{rule_id} missed its bad fixture: {findings}"
        )

    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_good_fixture_is_clean(self, rule_id):
        stem, relpath = RULE_CASES[rule_id]
        findings = _lint_fixture(f"good_{stem}", relpath)
        assert [f for f in findings if f.rule == rule_id] == []

    def test_rl002_exempt_in_obs(self):
        source = (FIXTURES / "bad_rl002.py").read_text()
        findings = _engine().lint_source("src/repro/obs/fixture.py", source)
        assert [f for f in findings if f.rule == "RL002"] == []

    def test_rl007_only_in_typed_packages(self):
        source = (FIXTURES / "bad_rl007.py").read_text()
        findings = _engine().lint_source("src/repro/obs/fixture.py", source)
        assert [f for f in findings if f.rule == "RL007"] == []

    def test_rl003_order_free_consumers_not_flagged(self):
        source = "def f(s: set) -> int:\n    return sum(x for x in s)\n"
        findings = _engine().lint_source("src/repro/core/fixture.py", source)
        assert [f for f in findings if f.rule == "RL003"] == []

    def test_registry_is_complete(self):
        assert [r.id for r in all_rules()] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL011",
        ]
        for rule in all_rules():
            assert rule.title and rule.rationale and rule.autofix_hint
            assert isinstance(rule.severity, Severity)


class TestConcurrencyRules:
    """RL008..RL011 specifics beyond the paired-fixture sweep."""

    def test_rl009_cycle_detected_across_files(self):
        # Split the AB/BA deadlock across two modules: the cycle is
        # only visible to the project-level finalize pass.
        bad = (FIXTURES / "bad_rl009.py").read_text()
        marker = "class Journal:"
        split = bad.index(marker)
        grouped = _engine().lint_sources(
            {
                "src/repro/service/ledger.py": bad[:split],
                "src/repro/service/journal.py": (
                    "import threading\n\n\n" + bad[split:]
                ),
            }
        )
        rules = {
            f.rule
            for findings in grouped.values()
            for f in findings
        }
        assert "RL009" in rules

    def test_rl008_caller_holds_lock_idiom_not_flagged(self):
        # Private helpers whose every call site holds the lock inherit
        # it — the service cache's `_touch`/`_admit` idiom.
        source = (FIXTURES / "good_rl008.py").read_text()
        findings = _engine().lint_source("src/repro/service/f.py", source)
        assert [f for f in findings if f.rule == "RL008"] == []

    def test_rl011_single_flight_idiom_not_flagged(self):
        # The release-then-wait shape of SharedBlockCache.fetch: the
        # marker wait and the loader call sit outside the lock.
        source = (FIXTURES / "good_rl011.py").read_text()
        findings = _engine().lint_source("src/repro/service/f.py", source)
        assert [f for f in findings if f.rule == "RL011"] == []

    def test_rl011_loader_attribute_call_under_lock_flagged(self):
        source = (FIXTURES / "bad_rl011.py").read_text()
        findings = _engine().lint_source("src/repro/service/f.py", source)
        labels = [f.message for f in findings if f.rule == "RL011"]
        assert any("loader()" in m for m in labels)
        assert any("wait()" in m for m in labels)

    def test_shared_vocabulary_in_messages(self):
        # Static findings carry the same violation kinds the dynamic
        # sanitizer reports, so CI can diff the two halves.
        from repro.obs import locksan

        source = (FIXTURES / "bad_rl008.py").read_text()
        findings = _engine().lint_source("src/repro/service/f.py", source)
        assert all(
            locksan.VIOLATION_UNGUARDED in f.message
            for f in findings
            if f.rule == "RL008"
        )
        assert findings


class TestSuppression:
    def test_inline_ignore_by_rule(self):
        source = (
            "def f(s: set) -> list:\n"
            "    return [x for x in s]  # lint: ignore[RL003]\n"
        )
        findings = _engine().lint_source("src/repro/core/fixture.py", source)
        assert findings == []

    def test_inline_ignore_wrong_rule_still_fires(self):
        source = (
            "def f(s: set) -> list:\n"
            "    return [x for x in s]  # lint: ignore[RL006]\n"
        )
        findings = _engine().lint_source("src/repro/core/fixture.py", source)
        assert [f.rule for f in findings] == ["RL003"]


def _make_tree(tmp_path: Path, *fixtures: str) -> Path:
    """A throwaway project tree with bad fixtures inside src/repro."""
    root = tmp_path / "proj"
    target = root / "src" / "repro"
    target.mkdir(parents=True)
    for name in fixtures:
        shutil.copy(FIXTURES / f"{name}.py", target / f"{name}.py")
    return root


class TestCli:
    def test_clean_repo_passes(self):
        out = io.StringIO()
        assert main(["--root", str(REPO)], out=out) == 0

    def test_bad_fixture_in_src_repro_fails(self, tmp_path):
        root = _make_tree(tmp_path, "bad_rl001", "bad_rl006")
        out = io.StringIO()
        assert main(["--root", str(root)], out=out) == 1
        assert "RL001" in out.getvalue()
        assert "RL006" in out.getvalue()

    def test_good_fixtures_pass(self, tmp_path):
        root = _make_tree(
            tmp_path, "good_rl001", "good_rl003", "good_rl006"
        )
        out = io.StringIO()
        assert main(["--root", str(root)], out=out) == 0

    def test_json_output_is_stable_and_sorted(self, tmp_path):
        root = _make_tree(tmp_path, "bad_rl003", "bad_rl006")
        first, second = io.StringIO(), io.StringIO()
        assert main(["--root", str(root), "--format", "json"], out=first) == 1
        assert main(["--root", str(root), "--format", "json"], out=second) == 1
        payload = json.loads(first.getvalue())
        keys = [
            (f["path"], f["line"], f["col"], f["rule"])
            for f in payload["findings"]
        ]
        assert keys == sorted(keys)
        strip = lambda s: json.dumps(
            {**json.loads(s), "stats": None}, sort_keys=True
        )
        assert strip(first.getvalue()) == strip(second.getvalue())
        assert payload["stats"]["by_rule"].keys() >= {"RL003", "RL006"}

    def test_select_and_ignore(self, tmp_path):
        root = _make_tree(tmp_path, "bad_rl003", "bad_rl006")
        out = io.StringIO()
        assert main(
            ["--root", str(root), "--select", "RL006", "--format", "json"],
            out=out,
        ) == 1
        rules = {f["rule"] for f in json.loads(out.getvalue())["findings"]}
        assert rules == {"RL006"}

        out = io.StringIO()
        assert main(
            ["--root", str(root), "--ignore", "RL003,RL006"], out=out
        ) == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        root = _make_tree(tmp_path, "good_rl001")
        assert main(["--root", str(root), "--select", "RL999"]) == 2

    def test_stats_output(self, tmp_path):
        root = _make_tree(tmp_path, "bad_rl001")
        out = io.StringIO()
        assert main(["--root", str(root), "--stats"], out=out) == 1
        text = out.getvalue()
        assert "per-rule counts:" in text
        assert "runtime:" in text
        for rule in all_rules():  # every rule listed, zeros included
            assert f"{rule.id}:" in text

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], out=out) == 0
        for rule in all_rules():
            assert rule.id in out.getvalue()


class TestRepoIsClean:
    def test_linter_finds_nothing_in_tree(self):
        config = load_config(REPO)
        report = LintEngine(config).run()
        assert report.parse_errors == []
        assert report.findings == [], [
            f.render() for f in report.findings
        ]
