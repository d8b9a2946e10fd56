"""Sweep progress lines and the standardized benchmark rollup.

:class:`SweepProgress` turns ``perf_counter`` into the CLI's ``cells
done / elapsed / ETA`` lines (``--progress``), so every cell's time is
printed as it finishes, serially and under ``--jobs``.

:func:`bench_rollup` + :func:`write_bench_json` are the emission path
for the repository's ``BENCH_<name>.json`` trajectory: every
``benchmarks/bench_*.py`` module's timings and key counters, rolled
into one standard JSON document per module at the repo root (wired up
in ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

BENCH_SCHEMA = 1


class SweepProgress:
    """Formats ``cells done / elapsed / ETA`` progress lines.

    Call it after each finished cell: ``progress(done, total, label)``.
    ETA is the naive linear extrapolation — honest enough for a sweep
    whose cells are similar orders of magnitude.
    """

    def __init__(
        self,
        emit: Callable[[str], None] = print,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self._emit = emit
        self._clock = clock
        self._start = clock()

    def __call__(self, done: int, total: int, label: str) -> None:
        elapsed = self._clock() - self._start
        if done > 0 and done < total:
            eta = f"{elapsed / done * (total - done):.1f}s"
        else:
            eta = "done" if done >= total else "?"
        self._emit(
            f"[{done}/{total}] {label}  elapsed {elapsed:.1f}s  eta {eta}"
        )


# ---------------------------------------------------------------------------
# The BENCH_*.json emission path.
# ---------------------------------------------------------------------------


def _stat_value(stats: Any, field: str) -> float | None:
    """Fish a timing statistic out of a pytest-benchmark stats object
    (tolerating both the Metadata and the inner Stats shapes)."""
    for candidate in (stats, getattr(stats, "stats", None)):
        if candidate is None:
            continue
        try:
            value = getattr(candidate, field)
        except (AttributeError, TypeError, ValueError, ZeroDivisionError):
            # RL006: typed — pytest-benchmark stats objects raise
            # StatisticsError (a ValueError) or divide by zero on
            # empty data, and shapes vary across versions.
            continue
        if isinstance(value, (int, float)):
            return float(value)
    return None


def bench_rollup(name: str, benchmarks: Iterable[Any]) -> dict[str, Any]:
    """Fold a module's pytest-benchmark results into the standard
    ``BENCH_*.json`` payload: one timing entry per benchmarked test
    (min/mean/max seconds and rounds) plus that test's ``extra_info``
    counters (the sigma rows and check counts the conftest helpers
    attach)."""
    timings: list[dict[str, Any]] = []
    total = 0.0
    for meta in benchmarks:
        stats = getattr(meta, "stats", None)
        entry: dict[str, Any] = {
            "test": getattr(meta, "name", None) or str(meta),
            "rounds": _stat_value(stats, "rounds"),
            "min_s": _stat_value(stats, "min"),
            "mean_s": _stat_value(stats, "mean"),
            "max_s": _stat_value(stats, "max"),
        }
        extra = getattr(meta, "extra_info", None)
        if extra:
            entry["counters"] = dict(extra)
        if entry["mean_s"] is not None and entry["rounds"]:
            total += entry["mean_s"] * entry["rounds"]
        timings.append(entry)
    return {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "source": "repro.obs.profiling.bench_rollup",
        "tests": len(timings),
        "total_s": total,
        "timings": sorted(timings, key=lambda t: str(t["test"])),
    }


def write_bench_json(
    name: str, payload: Mapping[str, Any], root: str | Path = "."
) -> Path:
    """Write ``payload`` to ``<root>/BENCH_<name>.json`` and return the
    path. ``name`` should be the bench module's stem without the
    ``bench_`` prefix (``table1_tree`` -> ``BENCH_table1_tree.json``)."""
    path = Path(root) / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
