"""``python -m repro.lint`` — the linter's command line.

Exit codes: 0 clean, 1 findings, 2 usage or configuration error.
``--format json`` output is sorted and stable so CI diffs and the
BENCH_lint rollup can consume it directly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import IO, Sequence

from repro.errors import ReproError
from repro.lint.config import load_config
from repro.lint.engine import LintEngine, LintReport
from repro.lint.rules import all_rules


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint: AST-based invariant linter for the reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root holding pyproject.toml (default: .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and the linter's own runtime",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    return parser


def _split_rules(raw: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _render_text(report: LintReport, out: IO[str]) -> None:
    for finding in report.findings:
        out.write(finding.render() + "\n")
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
    )
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed inline)"
    out.write(summary + "\n")


def _render_json(report: LintReport, duration: float, out: IO[str]) -> None:
    payload = {
        "version": 1,
        "findings": [finding.to_dict() for finding in report.findings],
        "stats": {
            "files_scanned": report.files_scanned,
            "findings": len(report.findings),
            "suppressed": report.suppressed,
            "by_rule": report.counts_by_rule,
            "by_severity": report.counts_by_severity,
            "runtime_seconds": round(duration, 6),
        },
    }
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _render_stats(report: LintReport, duration: float, out: IO[str]) -> None:
    counts = report.counts_by_rule
    out.write("per-rule counts:\n")
    for rule in all_rules():
        out.write(f"  {rule.id}: {counts.get(rule.id, 0)}\n")
    out.write(
        f"runtime: {duration:.3f}s over {report.files_scanned} file(s)\n"
    )


def _render_rules(out: IO[str]) -> None:
    for rule in all_rules():
        out.write(f"{rule.id} [{rule.severity}] {rule.title}\n")
        out.write(f"    why: {rule.rationale}\n")
        out.write(f"    fix: {rule.autofix_hint}\n")


def main(argv: Sequence[str] | None = None, out: IO[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    stream: IO[str] = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    if args.list_rules:
        _render_rules(stream)
        return 0
    started = time.perf_counter()  # lint: ignore[RL002] -- self-timing
    try:
        config = load_config(args.root)
        config = dataclasses.replace(
            config,
            select=_split_rules(args.select) or config.select,
            ignore=tuple(
                dict.fromkeys((*config.ignore, *_split_rules(args.ignore)))
            ),
        )
        engine = LintEngine(config)
        report = engine.run(args.paths or None)
    except ReproError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    duration = time.perf_counter() - started  # lint: ignore[RL002] -- self-timing
    if args.format == "json":
        _render_json(report, duration, stream)
    else:
        _render_text(report, stream)
        if args.stats:
            _render_stats(report, duration, stream)
    if report.parse_errors:
        for message in report.parse_errors:
            print(f"repro.lint: parse error: {message}", file=sys.stderr)
        return 2
    return 1 if report.findings else 0


__all__ = ["main"]
