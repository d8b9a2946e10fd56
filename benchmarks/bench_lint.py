"""Linter self-benchmark: full-tree run, per-rule counts, runtime.

The conftest machinery rolls this into ``BENCH_lint.json`` at the repo
root, so the lint trajectory (files scanned, findings per rule, engine
runtime) is tracked alongside the reproduction's performance numbers.
The assertions double as the repo-hygiene gate: the tree must lint
clean (a reviewed exception carries an inline ``# lint: ignore``).
"""

from pathlib import Path

from repro.lint import LintEngine, all_rules, load_config

REPO = Path(__file__).resolve().parents[1]


def test_lint_full_tree(benchmark):
    config = load_config(REPO)
    engine = LintEngine(config)
    report = benchmark.pedantic(
        engine.run, rounds=3, iterations=1, warmup_rounds=1
    )

    assert report.parse_errors == []
    assert report.files_scanned > 50  # the whole src/repro tree

    assert report.findings == [], [f.render() for f in report.findings]

    counts = report.counts_by_rule
    benchmark.extra_info["files_scanned"] = report.files_scanned
    benchmark.extra_info["findings"] = len(report.findings)
    benchmark.extra_info["suppressed"] = report.suppressed
    benchmark.extra_info["by_rule"] = {
        rule.id: counts.get(rule.id, 0) for rule in all_rules()
    }


def test_lint_concurrency_pass(benchmark):
    """The concurrency gate in isolation (RL008-RL011): per-class
    summaries, the eff-lock fixpoint, and the whole-program lock-order
    graph. Tracked separately because this is the only pass with a
    project-level finalize — its cost scales with class count, not
    just node count, and a regression here slows every CI lint run."""
    import dataclasses

    config = dataclasses.replace(
        load_config(REPO), select=("RL008", "RL009", "RL010", "RL011")
    )
    engine = LintEngine(config)
    report = benchmark.pedantic(
        engine.run, rounds=3, iterations=1, warmup_rounds=1
    )

    assert report.parse_errors == []
    assert report.files_scanned > 50
    # The tree is lock-discipline clean, so any finding at all is a
    # regression.
    assert report.findings == [], [f.render() for f in report.findings]
    benchmark.extra_info["files_scanned"] = report.files_scanned
    benchmark.extra_info["rules"] = list(config.select)
