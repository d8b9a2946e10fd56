"""The lint engine: one parse and one AST walk per file.

The engine resolves the file list from config, parses each file once,
builds a :class:`~repro.lint.rules.FileContext`, and dispatches every
AST node to the rules that declared interest in its type (a
``node-type -> [rules]`` map built once per run, so the walk is
O(nodes + findings), not O(nodes x rules)).

Inline suppression: ``# lint: ignore`` (all rules) or
``# lint: ignore[RL003,RL006]`` on the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ReproError
from repro.lint.config import LintConfig, LintConfigError
from repro.lint.findings import Finding
from repro.lint.rules import (
    FileContext,
    ProjectContext,
    Rule,
    all_rules,
    select_rules,
)

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def counts_by_rule(self) -> dict[str, int]:
        """Per-rule finding counts, in rule-id order."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def counts_by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            key = finding.severity.value
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def _suppressions(lines: Sequence[str]) -> dict[int, frozenset[str] | None]:
    """Line number (1-based) -> suppressed rule ids (None = all)."""
    table: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        if match.group(1) is None:
            table[lineno] = None
        else:
            table[lineno] = frozenset(
                token.strip() for token in match.group(1).split(",") if token.strip()
            )
    return table


class LintEngine:
    """Walks a tree and produces a :class:`LintReport`.

    Args:
        config: resolved configuration (root, paths, rule scoping).
        rules: the rules to run; defaults to the full registry filtered
            through ``config.select`` / ``config.ignore``.
    """

    def __init__(
        self, config: LintConfig, rules: Sequence[Rule] | None = None
    ) -> None:
        self.config = config
        if rules is None:
            rules = select_rules(all_rules(), config.select, config.ignore)
        self.rules: list[Rule] = list(rules)
        known = {rule.id for rule in all_rules()}
        for rule_id in (*config.select, *config.ignore):
            if rule_id not in known:
                raise ReproError(f"unknown rule id {rule_id!r}")

    # -- file discovery ----------------------------------------------------

    def target_files(
        self, paths: Sequence[str | Path] | None = None
    ) -> list[Path]:
        """Every ``.py`` file under the configured (or given) paths, in
        sorted order so reports are deterministic. A path that is
        neither a directory nor a ``.py`` file raises
        :class:`LintConfigError`: linting nothing must not pass."""
        roots = [
            Path(self.config.root) / p for p in (paths or self.config.paths)
        ]
        files: set[Path] = set()
        for root in roots:
            if root.is_file() and root.suffix == ".py":
                files.add(root)
            elif root.is_dir():
                files.update(root.rglob("*.py"))
            else:
                raise LintConfigError(
                    f"{root} is neither a directory nor a .py file"
                )
        return sorted(files)

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(
                Path(self.config.root).resolve()
            ).as_posix()
        except ValueError:
            return path.as_posix()

    # -- the run -----------------------------------------------------------

    def run(self, paths: Sequence[str | Path] | None = None) -> LintReport:
        """Lint the configured tree (or an explicit path list)."""
        report = LintReport()
        project = ProjectContext(config=self.config)
        suppressions: dict[str, dict[int, frozenset[str] | None]] = {}
        for path in self.target_files(paths):
            self._lint_file(path, report, project, suppressions)
        self._finalize(report, project, suppressions)
        report.findings.sort()
        return report

    def lint_source(self, relpath: str, source: str) -> list[Finding]:
        """Lint one in-memory source blob (the test fixtures' entry
        point); applies the same scoping and suppression as a file."""
        return self.lint_sources({relpath: source})[relpath]

    def lint_sources(
        self, sources: dict[str, str]
    ) -> dict[str, list[Finding]]:
        """Lint several in-memory blobs as one mini-project, sharing a
        :class:`ProjectContext` so cross-file rules (RL009) see all of
        them. Returns findings keyed by relpath."""
        report = LintReport()
        project = ProjectContext(config=self.config)
        suppressions: dict[str, dict[int, frozenset[str] | None]] = {}
        for relpath, source in sources.items():
            self._lint_blob(relpath, source, report, project, suppressions)
        self._finalize(report, project, suppressions)
        report.findings.sort()
        grouped: dict[str, list[Finding]] = {relpath: [] for relpath in sources}
        for finding in report.findings:
            grouped.setdefault(finding.path, []).append(finding)
        return grouped

    def _finalize(
        self,
        report: LintReport,
        project: ProjectContext,
        suppressions: dict[str, dict[int, frozenset[str] | None]],
    ) -> None:
        """Run every rule's project-level pass, honouring the inline
        suppressions recorded while the files were walked."""
        for rule in self.rules:
            for finding in rule.finalize(project):
                table = suppressions.get(finding.path, {})
                if self._is_suppressed(finding, table):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)

    def _lint_file(
        self,
        path: Path,
        report: LintReport,
        project: ProjectContext,
        suppressions: dict[str, dict[int, frozenset[str] | None]],
    ) -> None:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{path}: {exc}")
            return
        self._lint_blob(self._relpath(path), source, report, project, suppressions)

    def _lint_blob(
        self,
        relpath: str,
        source: str,
        report: LintReport,
        project: ProjectContext,
        suppressions: dict[str, dict[int, frozenset[str] | None]],
    ) -> None:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            report.parse_errors.append(f"{relpath}: {exc}")
            return
        report.files_scanned += 1
        active = [
            rule
            for rule in self.rules
            if rule.applies_to(relpath, self.config)
        ]
        if not active:
            return
        dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in active:
            for node_type in rule.interests:
                dispatch.setdefault(node_type, []).append(rule)
        ctx = FileContext.build(relpath, source, tree, self.config, project)
        suppressed = _suppressions(source.splitlines())
        suppressions[relpath] = suppressed
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                for finding in rule.check(node, ctx):
                    if self._is_suppressed(finding, suppressed):
                        report.suppressed += 1
                    else:
                        report.findings.append(finding)

    @staticmethod
    def _is_suppressed(
        finding: Finding, table: dict[int, frozenset[str] | None]
    ) -> bool:
        if finding.line not in table:
            return False
        rules = table[finding.line]
        return rules is None or finding.rule in rules


def lint_tree(
    root: str | Path,
    config: LintConfig | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintReport:
    """Convenience one-shot: lint ``root`` with its own pyproject
    config (used by tests and the benchmark)."""
    from repro.lint.config import load_config

    if config is None:
        config = load_config(root)
    engine = LintEngine(config, rules=list(rules) if rules is not None else None)
    return engine.run()


__all__ = ["LintEngine", "LintReport", "lint_tree"]
