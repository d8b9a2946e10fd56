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
* :mod:`repro.lint.config`   — ``[tool.repro-lint]`` in pyproject.toml.
* :mod:`repro.lint.cli`      — ``python -m repro.lint``.

Suppression: append ``# lint: ignore[RL003] -- reason`` (or a bare
``# lint: ignore`` for all rules) to a line. It is the one way to
accept a finding, and it is for *reviewed* exceptions; prefer fixing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _facade

#: The public names, by defining module; each is imported on its first
#: lookup (:func:`repro._facade`).
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.lint.config": ("LintConfig", "load_config"),
    "repro.lint.engine": ("LintEngine", "LintReport"),
    "repro.lint.findings": ("Finding", "Severity"),
    "repro.lint.rules": (
        "FileContext", "ProjectContext", "Rule", "all_rules", "get_rule",
    ),
}

if TYPE_CHECKING:
    from repro.lint.config import LintConfig as LintConfig, load_config as load_config
    from repro.lint.engine import LintEngine as LintEngine, LintReport as LintReport
    from repro.lint.findings import Finding as Finding, Severity as Severity
    from repro.lint.rules import (
        FileContext as FileContext,
        ProjectContext as ProjectContext,
        Rule as Rule,
        all_rules as all_rules,
        get_rule as get_rule,
    )
else:
    __getattr__, __dir__, __all__ = _facade(globals(), _EXPORTS)
