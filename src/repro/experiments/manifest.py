"""Campaign manifests: the append-only journal a sweep can resume from.

A manifest is a JSONL file describing one campaign — a supervised run
of the Table 1 sweep's :class:`~repro.experiments.table1.CellSpec`
list. Its first record is the campaign header (campaign id, schema
version, one fingerprint per cell, caller metadata); every subsequent
record is a cell transition::

    {"record": "campaign", "campaign_id": ..., "cells": [...], ...}
    {"record": "cell", "index": 0, "status": "started", "attempt": 1, ...}
    {"record": "cell", "index": 0, "status": "done", "results": [...], ...}

The journal is logically append-only — records are never rewritten,
only added — and every commit is crash-atomic: the writer keeps the
full line list and publishes it with the :mod:`repro.cache` tempfile +
``os.replace`` idiom (:func:`~repro.cache.atomic_write_text`), so a
reader (or a resuming campaign) sees a complete, parseable journal no
matter when the writing process was killed. As a second line of
defense, :func:`load_manifest` reads with the shared JSONL reader
(:func:`repro.obs.sinks.read_journal`), which drops a torn final
append (a last line with no newline that does not decode), so a
manifest produced by a plain-append writer is also recoverable.

``done`` records carry the cell's results in the exact wire form of
:mod:`repro.experiments.io` (:func:`~repro.experiments.io.game_to_dict`
/ :func:`~repro.experiments.io.check_to_dict`), which makes a resumed
campaign's merged dump byte-identical to an uninterrupted run's.

Cell *fingerprints* (:func:`spec_fingerprint`) pin a manifest to the
exact sweep that started it: resuming with different cells, steps, or
reliability configuration is an error, not a silent partial rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.cache import atomic_write_text
from repro.errors import ReproError
from repro.experiments.harness import CheckResult, ExperimentResult
from repro.experiments.io import (
    check_from_dict,
    check_to_dict,
    game_from_dict,
    game_to_dict,
)
from repro.experiments.table1 import CellSpec
from repro.obs.sinks import manifest_decoder, read_journal

MANIFEST_SCHEMA = 1

# Terminal statuses: the cell needs no further work on resume.
_TERMINAL = ("done",)


class ManifestError(ReproError):
    """An unreadable, inconsistent, or mismatched campaign manifest."""


def _encode(record: Mapping[str, Any]) -> str:
    """A record's journal line (no newline)."""
    return json.dumps(record, sort_keys=True)


def _describe(value: Any) -> Any:
    """A stable, address-free description of a kwargs value.

    Primitives and containers pass through; arbitrary objects (e.g. a
    :class:`~repro.reliability.store.ReliabilityConfig` with its nested
    injector and retry policy) are described structurally by type name
    plus their public primitive attributes, so the description — unlike
    ``repr`` — never embeds a memory address.
    """
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_describe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _describe(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    attrs = {
        name: _describe(attr)
        for name, attr in sorted(vars(value).items())
        if not name.startswith("_")
    } if hasattr(value, "__dict__") else {}
    return {"__type__": type(value).__qualname__, **attrs}


def sweep_digest(specs: Sequence[CellSpec]) -> str:
    """A content hash pinning the whole sweep: cell order, names,
    kinds, and per-cell fingerprints.

    Unlike a campaign id (which embeds run-time entropy so two starts
    of the same sweep are distinguishable), the sweep digest is a pure
    function of the specs — the telemetry plane keys its span ids on it
    so the same sweep yields the same causality ids on every run.
    """
    cells = [
        {
            "index": index,
            "name": spec.name,
            "kind": spec.kind,
            "fingerprint": spec_fingerprint(spec),
        }
        for index, spec in enumerate(specs)
    ]
    return hashlib.sha256(
        json.dumps(cells, sort_keys=True).encode()
    ).hexdigest()[:12]


def spec_fingerprint(spec: CellSpec) -> str:
    """A content hash pinning one cell's identity across processes."""
    canonical = json.dumps(
        {
            "name": spec.name,
            "kind": spec.kind,
            "func": spec.func,
            "kwargs": _describe(spec.kwargs),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class CellState:
    """The latest journaled state of one cell."""

    index: int
    name: str
    kind: str
    fingerprint: str
    status: str = "pending"  # pending | started | retrying | done | failed
    attempt: int = 0
    error: str | None = None
    results: list[dict] | None = None

    @property
    def completed(self) -> bool:
        return self.status in _TERMINAL

    def load_results(self) -> list[ExperimentResult] | list[CheckResult]:
        """Rebuild the journaled results (``done`` cells only)."""
        if self.results is None:
            raise ManifestError(
                f"cell {self.name!r} (index {self.index}) has no journaled "
                f"results (status {self.status!r})"
            )
        if self.kind == "game":
            return [game_from_dict(r) for r in self.results]
        return [check_from_dict(r) for r in self.results]


@dataclass
class Manifest:
    """A parsed campaign journal: header plus folded per-cell states.

    ``lines`` holds each decoded record as :class:`ManifestWriter`
    encodes it (a torn final append excluded): for a journal that
    writer wrote, its lines byte for byte, so a resumed writer
    continues the same bytes.
    """

    path: Path
    campaign_id: str
    fingerprints: list[str]
    names: list[str]
    kinds: list[str]
    meta: dict[str, Any] = field(default_factory=dict)
    cells: dict[int, CellState] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def cell(self, index: int) -> CellState:
        state = self.cells.get(index)
        if state is None:
            state = CellState(
                index=index,
                name=self.names[index],
                kind=self.kinds[index],
                fingerprint=self.fingerprints[index],
            )
            self.cells[index] = state
        return state

    def completed_indices(self) -> list[int]:
        return sorted(i for i, c in self.cells.items() if c.completed)

    def pending_indices(self) -> list[int]:
        """Cells a resume must (re)run: never finished, or failed."""
        return [
            i for i in range(len(self.fingerprints)) if not self.cell(i).completed
        ]

    def verify_specs(self, specs: Sequence[CellSpec]) -> None:
        """Raise unless ``specs`` is exactly the journaled sweep."""
        fingerprints = [spec_fingerprint(spec) for spec in specs]
        if fingerprints != self.fingerprints:
            theirs = list(zip(self.names, self.fingerprints))
            ours = [(spec.name, fp) for spec, fp in zip(specs, fingerprints)]
            raise ManifestError(
                f"manifest {self.path} journals a different sweep; "
                f"resume with the same cells/flags it was started with "
                f"(journaled {theirs!r}, requested {ours!r})"
            )


def load_manifest(path: str | Path) -> Manifest:
    """Parse a manifest journal, folding cell records into latest state.

    A torn final append (a non-atomic writer killed mid-line) is
    ignored; any other line that is not one JSON object, or a record
    that lacks a key the fold reads or names no cell of the header
    (:func:`~repro.obs.sinks.manifest_decoder`), raises
    :class:`ManifestError` naming it.
    """
    path = Path(path)
    records = read_journal(
        path, manifest_decoder("fingerprint", "name", "kind"), ManifestError
    )
    if not records:
        raise ManifestError(f"manifest {path} is empty")
    header = records[0]
    if header.get("record") != "campaign":
        raise ManifestError(
            f"manifest {path} does not start with a campaign header"
        )
    if header.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"unsupported manifest schema {header.get('schema')!r} in {path}; "
            f"expected {MANIFEST_SCHEMA}"
        )
    cells = header.get("cells", [])
    manifest = Manifest(
        path=path,
        campaign_id=header.get("campaign_id", ""),
        fingerprints=[c["fingerprint"] for c in cells],
        names=[c["name"] for c in cells],
        kinds=[c["kind"] for c in cells],
        meta=dict(header.get("meta", {})),
        lines=[_encode(record) for record in records],
    )
    for record in records[1:]:
        if record.get("record") != "cell":
            continue
        state = manifest.cell(record["index"])
        state.status = record["status"]
        state.attempt = record.get("attempt", state.attempt)
        state.error = record.get("error")
        if record.get("results") is not None:
            state.results = list(record["results"])
    return manifest


class ManifestWriter:
    """Journals one campaign with crash-atomic commits.

    Records accumulate in memory and every :meth:`append` republishes
    the whole journal via tempfile + ``os.replace``; the on-disk file
    is always a complete, parseable JSONL document. (Campaigns are
    tens of cells, so the rewrite cost is noise next to running one.)
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lines: list[str] = []

    @classmethod
    def create(
        cls,
        path: str | Path,
        specs: Sequence[CellSpec],
        meta: Mapping[str, Any] | None = None,
    ) -> "ManifestWriter":
        """Start a fresh journal for ``specs`` (overwrites ``path``)."""
        writer = cls(path)
        cells = [
            {
                "index": index,
                "name": spec.name,
                "kind": spec.kind,
                "fingerprint": spec_fingerprint(spec),
            }
            for index, spec in enumerate(specs)
        ]
        campaign_id = f"campaign-{sweep_digest(specs)}-{os.urandom(4).hex()}"
        writer.append(
            {
                "record": "campaign",
                "schema": MANIFEST_SCHEMA,
                "campaign_id": campaign_id,
                "cells": cells,
                "meta": dict(meta or {}),
            }
        )
        return writer

    @classmethod
    def resume(cls, manifest: Manifest) -> "ManifestWriter":
        """Continue journaling an existing manifest in place, from the
        lines :func:`load_manifest` decoded (a torn tail is dropped)."""
        writer = cls(manifest.path)
        writer._lines = list(manifest.lines)
        return writer

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record and commit the journal atomically."""
        self._lines.append(_encode(record))
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

    # -- cell transitions -------------------------------------------------

    def cell_started(self, index: int, name: str, attempt: int) -> None:
        self.append(
            {
                "record": "cell",
                "index": index,
                "name": name,
                "status": "started",
                "attempt": attempt,
            }
        )

    def cell_retrying(
        self,
        index: int,
        name: str,
        attempt: int,
        reason: str,
        delay: float | None,
    ) -> None:
        self.append(
            {
                "record": "cell",
                "index": index,
                "name": name,
                "status": "retrying",
                "attempt": attempt,
                "error": reason,
                "delay": delay,
            }
        )

    def cell_done(
        self,
        index: int,
        name: str,
        attempt: int,
        results: Sequence[ExperimentResult] | Sequence[CheckResult],
        kind: str,
    ) -> None:
        payload = [
            game_to_dict(r) if kind == "game" else check_to_dict(r)  # type: ignore[arg-type]
            for r in results
        ]
        self.append(
            {
                "record": "cell",
                "index": index,
                "name": name,
                "status": "done",
                "attempt": attempt,
                "results": payload,
            }
        )

    def cell_failed(
        self, index: int, name: str, attempt: int, error: str
    ) -> None:
        self.append(
            {
                "record": "cell",
                "index": index,
                "name": name,
                "status": "failed",
                "attempt": attempt,
                "error": error,
            }
        )
