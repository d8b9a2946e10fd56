"""Linter configuration: defaults + ``[tool.repro-lint]`` overrides.

The defaults encode this repository's layout (``src/repro`` is the
linted tree, ``obs``/``benchmarks`` may read the clock, ``CellSpec``
is the campaign runner's wire format). Everything is overridable from
``pyproject.toml`` so the fixture mini-trees under ``tests/`` can run
the same engine against a different root with different scoping.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.errors import ReproError


class LintConfigError(ReproError):
    """Raised for unreadable or ill-typed ``[tool.repro-lint]`` tables."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration.

    Path-shaped fields (``paths``, ``*_paths``) are POSIX-style
    prefixes relative to ``root``; a file is "under" a prefix when its
    relative path equals it or starts with ``prefix + '/'``.
    """

    root: Path = Path(".")
    paths: tuple[str, ...] = ("src/repro",)
    exclude: tuple[str, ...] = ()
    baseline_path: str = "lint_baseline.json"
    select: tuple[str, ...] = ()  # empty = all registered rules
    ignore: tuple[str, ...] = ()
    # RL001/RL002: paths allowed to read ambient randomness / the clock.
    rng_exempt_paths: tuple[str, ...] = ("benchmarks",)
    clock_exempt_paths: tuple[str, ...] = ("src/repro/obs", "benchmarks")
    # RL004: classes shipped across process boundaries, plus extra type
    # names accepted as picklable in their field annotations.
    spec_classes: tuple[str, ...] = ("CellSpec",)
    extra_picklable: tuple[str, ...] = ("ReliabilityConfig",)
    # RL005: trace-event base classes and the paths they live under.
    event_bases: tuple[str, ...] = ("TraceEvent",)
    event_paths: tuple[str, ...] = ("src/repro/obs",)
    # RL007: packages whose public surface must be fully annotated.
    typed_api_paths: tuple[str, ...] = (
        "src/repro/core",
        "src/repro/blockings",
        "src/repro/adversaries",
    )
    # RL011: caller-supplied callables assumed to block (disk reads the
    # single-flight cache hands out, injected load functions).
    blocking_call_names: tuple[str, ...] = ("loader", "load_fn", "builder")

    def is_under(self, relpath: str, prefixes: tuple[str, ...]) -> bool:
        """Whether ``relpath`` sits under any of the given prefixes."""
        return any(
            relpath == prefix or relpath.startswith(prefix + "/")
            for prefix in prefixes
        )

    def is_excluded(self, relpath: str) -> bool:
        return self.is_under(relpath, self.exclude)


_TUPLE_FIELDS = {
    "paths",
    "exclude",
    "select",
    "ignore",
    "rng_exempt_paths",
    "clock_exempt_paths",
    "spec_classes",
    "extra_picklable",
    "event_bases",
    "event_paths",
    "typed_api_paths",
    "blocking_call_names",
}
_STR_FIELDS = {"baseline_path"}


def _coerce(key: str, value: Any) -> Any:
    toml_key = key.replace("_", "-")
    if key in _TUPLE_FIELDS:
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            raise LintConfigError(
                f"[tool.repro-lint] {toml_key} must be a list of strings"
            )
        return tuple(value)
    if key in _STR_FIELDS:
        if not isinstance(value, str):
            raise LintConfigError(
                f"[tool.repro-lint] {toml_key} must be a string"
            )
        return value
    raise LintConfigError(f"[tool.repro-lint] unknown key {toml_key!r}")


def load_config(root: Path | str = ".") -> LintConfig:
    """Read ``<root>/pyproject.toml`` and fold ``[tool.repro-lint]``
    over the defaults. A missing file or missing table is fine — the
    defaults describe this repository."""
    root = Path(root)
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise LintConfigError(f"cannot read {pyproject}: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")
    overrides: dict[str, Any] = {}
    for toml_key, value in table.items():
        key = str(toml_key).replace("-", "_")
        overrides[key] = _coerce(key, value)
    return replace(config, **overrides)


__all__ = ["LintConfig", "LintConfigError", "load_config"]
