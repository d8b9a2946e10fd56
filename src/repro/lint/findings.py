"""Findings: what a rule reports and how findings are ordered.

A :class:`Finding` is one violation at one source location. Findings
sort by ``(path, line, col, rule)`` so every output format — text
and JSON — is stable across runs and across
``PYTHONHASHSEED`` values (the linter holds itself to the invariants
it enforces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break determinism or the wire format outright;
    ``WARNING`` findings are conventions whose violation is usually —
    but not provably — a bug. Both fail the run: the split exists for
    reporting and for burn-down prioritisation, not for leniency.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    ``path`` is POSIX-relative to the lint root so the JSON output is
    machine-independent.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RLxxx message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )
