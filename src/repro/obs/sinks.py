"""Event sinks: where emitted trace events go.

A sink is anything with ``emit(event)`` and ``close()``. Three are
provided:

* :class:`NullSink` — swallows everything (metrics-only setups);
* :class:`RingBufferSink` — keeps the last ``capacity`` events in
  memory (always-on flight recorder: cheap until you need the tail);
* :class:`JsonlSink` — appends one JSON object per event to a file,
  the format ``repro.obs.replay`` consumes.

Sinks account for their own lossiness: ``events_dropped`` counts the
events a bounded sink discarded (only :class:`RingBufferSink` ever
drops), and the telemetry plane surfaces that number in every trace's
``trace_footer`` so a merged campaign trace states its completeness.

The way back is :func:`read_records`, the one JSONL reader: traces
(:func:`read_jsonl`, which decodes each run's distinct lines once),
shards, and the append-only journals (:func:`read_journal`: the
campaign manifest and the bench history).
"""

from __future__ import annotations

import abc
import json
import re
from collections import deque
from pathlib import Path
from typing import IO, Any, Callable, Iterator, TypeVar

from repro.errors import ReproError
from repro.obs.events import RunStartEvent, TraceEvent, event_from_dict

T = TypeVar("T")

#: The one wire decoder, bound once: a stripped line skips the type,
#: BOM and whitespace checks ``json.loads`` makes around each call.
_RAW_DECODE = json.JSONDecoder().raw_decode
#: JSON's whitespace, the only characters ``json.loads`` allows around a
#: value (``str.strip()`` would also drop ``\xa0`` or ``\u2028``).
_JSON_WHITESPACE = " \t\n\r"
_SKIP_WHITESPACE = re.compile(f"[{_JSON_WHITESPACE}]*").match


class TraceSink(abc.ABC):
    """Receives every event an :class:`~repro.obs.instrument.Instrumentation`
    emits, in order."""

    #: Events this sink discarded (lossy sinks override per instance).
    events_dropped: int = 0

    @abc.abstractmethod
    def emit(self, event: TraceEvent) -> None:
        """Accept one event."""

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(TraceSink):
    """Discards events (still counts them, for sanity checks)."""

    def __init__(self) -> None:
        self.events_seen = 0

    def emit(self, event: TraceEvent) -> None:
        self.events_seen += 1


class RingBufferSink(TraceSink):
    """Holds the most recent ``capacity`` events in memory.

    When the ring wraps, the overwritten event is *dropped*:
    ``events_dropped`` counts them (a shard's ``trace_footer`` carries
    the number) — so a flight recorder that lost its early history says
    so instead of silently presenting a truncated past as complete.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.events_seen = 0
        self.events_dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.events_dropped += 1
        self._buffer.append(event)
        self.events_seen += 1

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        """Discard retained events (already-counted drops stand)."""
        self._buffer.clear()


class JsonlSink(TraceSink):
    """Writes events as JSON Lines to ``path`` (or an open stream).

    The file is opened lazily on the first event and truncated, so
    constructing the sink is free and an unused sink leaves no file.
    Once a path-owned sink is closed it stays closed: a later event
    raises :class:`ReproError` instead of truncating the file it wrote.
    """

    def __init__(self, path: str | Path | None = None, stream: IO[str] | None = None) -> None:
        if (path is None) == (stream is None):
            raise ValueError("JsonlSink needs exactly one of path or stream")
        self.path = Path(path) if path is not None else None
        self._stream = stream
        self._owns_stream = stream is None
        self._closed = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        stream = self._stream
        if stream is None:
            stream = self._open()
        stream.write(event.to_json() + "\n")
        self.events_written += 1

    def _open(self) -> IO[str]:
        if self._closed:
            raise ReproError(
                f"{self.path}: event after close() "
                f"({self.events_written} events already written)"
            )
        assert self.path is not None
        self._stream = self.path.open("w", encoding="utf-8")
        return self._stream

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
                self._stream = None
        self._closed = True


class TornTailError(ReproError):
    """A final line with no newline that does not decode: an append cut
    short, raised after every record before it was yielded."""


def read_records(
    path: str | Path,
    decode: Callable[[dict[str, Any]], T],
    error: type[ReproError],
    memo: dict[bytes, T] | None = None,
) -> Iterator[T]:
    """The one JSONL reader: ``decode`` of each line's JSON object, in
    file order, skipping blank lines.

    A final line with no newline that does not decode raises
    :class:`TornTailError`; any other line that is not UTF-8 or not
    exactly one JSON object, or whose object ``decode`` rejects (with a
    ``ReproError``, ``TypeError`` or ``ValueError``), raises ``error``
    naming the file and its 1-based line. Each line is decoded on its
    own, from bytes: parsing the file as one array could join two torn
    lines, and a text stream reports a bad byte at a chunk offset.

    ``memo``, when given, maps a line's raw bytes (newline included) to
    the record it decoded to: a line already in it yields that same
    record, with no second decode and no ``decode`` call, and each line
    that decodes is stored. A line that fails is never stored, so every
    rule above holds for it wherever it repeats. Only a caller whose
    ``decode`` keeps no state and whose records are not mutated may pass
    one; the caller owns it and may clear it between reads.

    A file that cannot be opened raises ``error`` naming it.
    """
    try:
        opened = Path(path).open("rb")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    with opened as stream:
        for number, line in enumerate(stream, 1):
            if memo is not None and line in memo:
                yield memo[line]
                continue
            try:
                text = line.decode("utf-8").strip(_JSON_WHITESPACE)
                if not text:
                    continue
                payload, end = _RAW_DECODE(text)
                if end != len(text):
                    raise json.JSONDecodeError(
                        "Extra data", text, _SKIP_WHITESPACE(text, end).end()
                    )
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                where = f"{path}:{number}: "
                if isinstance(exc, UnicodeDecodeError):
                    form, what = "UTF-8", f"({exc.reason} at byte {exc.start + 1})"
                else:
                    form, what = "JSON", f"({exc.msg} at column {exc.colno})"
                if not line.endswith(b"\n"):
                    raise TornTailError(f"{where}torn final line {what}") from exc
                raise error(f"{where}undecodable {form} {what}") from exc
            if type(payload) is not dict:
                raise error(f"{path}:{number}: not a JSON object: {text[:60]}")
            try:
                record = decode(payload)
            except (ReproError, TypeError, ValueError) as exc:
                raise error(f"{path}:{number}: {exc}") from exc
            if memo is not None:
                memo[line] = record
            yield record


def _require_keys(record: Any, what: str, keys: tuple[str, ...]) -> None:
    for key in keys:
        if key not in record:
            raise ValueError(f"{what} has no {key!r}")


def manifest_decoder(
    *header_keys: str,
) -> Callable[[dict[str, Any]], dict[str, Any]]:
    """A ``decode`` for a campaign manifest journal, checking what a
    fold of it reads: ``header_keys`` in each header cell, and in each
    cell record a ``status``, an ``index`` that is an ``int`` (not a
    ``bool``) naming a cell of the first header decoded, and an
    ``attempt``, when present, that is an ``int`` too. A record that
    fails raises ``ValueError``, which :func:`read_records` reports at
    its ``path:line``. The decoder keeps that header's cell count, so
    each reading of a journal takes a fresh one."""
    cells: int | None = None

    def decode(record: dict[str, Any]) -> dict[str, Any]:
        nonlocal cells
        kind = record.get("record")
        if kind == "campaign":
            header = record.get("cells", [])
            for cell in header:
                _require_keys(cell, "header cell", header_keys)
            if cells is None:
                cells = len(header)
        elif kind == "cell":
            _require_keys(record, "cell record", ("index", "status"))
            for key in ("index", "attempt"):  # an absent attempt passes
                value = record.get(key, 0)
                if type(value) is not int:
                    raise ValueError(
                        f"cell record {key} {json.dumps(value)} is not an integer"
                    )
            index = record["index"]
            if cells is not None and not 0 <= index < cells:
                raise ValueError(
                    f"cell record index {index} names no cell of the header "
                    f"(it lists {cells})"
                )
        return record

    return decode


def read_journal(
    path: str | Path,
    decode: Callable[[dict[str, Any]], T],
    error: type[ReproError],
) -> list[T]:
    """Every record of an append-only journal (:func:`read_records`),
    keeping those before a torn final append: a writer killed mid-line
    leaves a journal valid up to that line. Each line is decoded, its
    repeats too: :func:`manifest_decoder` keeps state, and the records
    are dicts a caller may change."""
    records: list[T] = []
    try:
        for record in read_records(path, decode, error):
            records.append(record)
    except TornTailError:
        pass
    return records


def read_jsonl(path: str | Path) -> Iterator[TraceEvent]:
    """A JSONL trace's typed events, in file order (:func:`read_records`;
    an unknown kind, a missing field, or a value no event could hold is
    a :class:`ReproError` too).

    Each run's distinct lines are decoded once: a line equal to an
    earlier line since the latest ``run_start`` yields the event that
    line decoded to, the same frozen object. :func:`event_from_dict`
    keeps no state, so the stream equals a fresh decode of every line;
    a reader only reads an event or copies it with
    ``dataclasses.replace``. The memo is cleared at each ``run_start``:
    an engine line carries its run id, so it repeats only within its
    run, and the memo holds one run's distinct lines at most.
    """
    memo: dict[bytes, TraceEvent] = {}

    def decode(payload: dict[str, Any]) -> TraceEvent:
        event = event_from_dict(payload)
        if type(event) is RunStartEvent:
            memo.clear()
        return event

    return read_records(path, decode, ReproError, memo)
