"""reprolint — the reproduction's own AST-based invariant linter.

The paper's bounds are only reproducible when every run is
bit-deterministic, and determinism here is a stack of *conventions*:
RNGs are seeded and threaded, the core never reads the wall clock,
iteration never leaks hash order into results, everything the campaign
runner ships across a process boundary is frozen picklable data, trace
events round-trip through the JSONL wire form, errors are never
silently swallowed, and the public surface is fully typed. Replay
``--check`` and the serial-vs-``--jobs`` byte-identity CI job *assume*
all of that; this package is the tool that enforces it.

Architecture (one file each, ~flake8-plugin shaped but self-contained):

* :mod:`repro.lint.findings` — :class:`Finding` + severities.
* :mod:`repro.lint.rules`    — the :class:`Rule` protocol, base class,
  registry, and the per-file :class:`FileContext` handed to rules.
* :mod:`repro.lint.engine`   — parses each file once and dispatches
  AST nodes to every registered rule interested in that node type.
* :mod:`repro.lint.rulepack` — RL001..RL007, this repository's real
  invariants.
* :mod:`repro.lint.concurrency` — RL008..RL011, the lock-discipline
  rules (guard-map inference, lock-order cycles, unguarded thread
  captures, blocking calls under a lock); the static half of the
  concurrency gate whose dynamic half is :mod:`repro.obs.locksan`.
* :mod:`repro.lint.baseline` — the ``lint_baseline.json`` burn-down
  mechanism: pre-existing findings are hidden, new ones fail.
* :mod:`repro.lint.config`   — ``[tool.repro-lint]`` in pyproject.toml.
* :mod:`repro.lint.cli`      — ``python -m repro.lint``.

Suppression: append ``# lint: ignore[RL003]`` (or a bare
``# lint: ignore`` for all rules) to a line, or ``# lint: skip-file``
anywhere in the first ten lines of a file. Suppressions are for
*reviewed* exceptions; prefer fixing or baselining.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintEngine, LintReport
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    FileContext,
    ProjectContext,
    Rule,
    all_rules,
    get_rule,
)

__all__ = [
    "Baseline",
    "FileContext",
    "ProjectContext",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "load_config",
]
