"""Typed trace events.

The engine's observable life is eight event kinds, mirroring the moves
of the Section 2 game: a run starts (``run_start``), the pathfront
crosses edges (``step``), lands on uncovered vertices (``fault``), the
pager reads blocks (``block_read``) after freeing room (``eviction``),
an unreliable disk forces re-reads (``retry``) and replica fallbacks
(``fallback``), and the run ends (``run_end``) carrying the final
:class:`~repro.core.stats.SearchTrace` snapshot.

Two more records frame a trace, both subclasses of
:class:`CampaignEvent`, and join no engine run: ``shard_merged`` (the
telemetry plane's causality record linking a campaign cell to its
engine runs in a merged trace, :mod:`repro.obs.spans`) and
``trace_footer`` (the closing completeness statement of any finished
trace). A campaign's supervision (cells started, retried, finished,
workers killed, resumes) is journaled in its manifest
(:mod:`repro.experiments.manifest`), not traced.

Events are plain frozen dataclasses with a stable wire form
(:meth:`TraceEvent.to_json` / :func:`event_from_dict`): one JSON object
per event, ``{"event": <kind>, "run": <id>, ...}``, fields in
declaration order. Each class's :class:`WirePlan`, derived once from its
dataclass fields, drives both directions. Vertices and block ids are
arbitrary hashables in memory; on the wire, tuples become JSON arrays
and the plan's identifier fields are converted back on load
(:func:`retuple`), so a JSONL trace round-trips exactly for the
int/str/tuple identifiers every substrate in this repository uses. A
wire object that no event could have written (a JSON object inside an
identifier, a ``blocks`` or ``block_ids`` that is neither null nor an
array, a ``trace`` that is not an object, a scalar field holding a
value of another type than its annotation's) is refused on load.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, ClassVar, Mapping

from repro.errors import ReproError

#: The wire encoder's settings: compact separators, and the same
#: ``str`` fallback for exotic leaves that :func:`jsonable` applies.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)


def _bind_encoder() -> Callable[[dict[str, Any]], str]:
    """``_ENCODER.encode``, minus its per-call set-up.

    ``JSONEncoder.encode`` builds a C encoder, a circular-reference
    dict and a float closure for every object; this builds the C
    encoder once, with ``_ENCODER``'s settings. It keeps no markers
    dict: an event holds no cycles, and a shared dict would outlive a
    call that failed halfway.
    """
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:  # an interpreter without the C accelerator
        return _ENCODER.encode
    iterencode = make(
        None,
        _ENCODER.default,
        json.encoder.encode_basestring_ascii,
        _ENCODER.indent,
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )

    def encode(payload: dict[str, Any]) -> str:
        return "".join(iterencode(payload, 0))

    return encode


_encode = _bind_encoder()


def jsonable(value: Any) -> Any:
    """Convert a value to a JSON-serializable form (tuples -> lists,
    recursively; exotic types fall back to ``str``)."""
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def retuple(value: Any) -> Any:
    """Undo :func:`jsonable` for an identifier: JSON arrays back to
    tuples, recursively; scalars pass through. JSON decodes to exact
    ``list`` and ``dict``, so the tests are on the exact type. A JSON
    object is no identifier: it raises ``ValueError``."""
    cls = type(value)
    if cls is list:
        items: list[Any] = []
        for item in value:  # a loop, not a comprehension: no frame per array
            kind = type(item)
            if kind is list or kind is dict:
                item = retuple(item)
            items.append(item)
        return tuple(items)
    if cls is dict:
        raise ValueError(f"holds a JSON object: {_ENCODER.encode(value)}")
    return value


def _retuple_ids(value: Any) -> Any:
    """:func:`retuple` for a field holding null or an array of
    identifiers."""
    if value is None:
        return None
    if type(value) is not list:
        raise ValueError(f"is neither null nor an array: {_ENCODER.encode(value)}")
    return retuple(value)


def _mapping(value: Any) -> Any:
    """A field holding a JSON object, taken as decoded."""
    if type(value) is not dict:
        raise ValueError(f"is not a JSON object: {_ENCODER.encode(value)}")
    return value


#: How each identifier or mapping field is checked and rebuilt on load.
_CONVERTERS: dict[str, Callable[[Any], Any]] = {
    "vertex": retuple,
    "block_id": retuple,
    "failed_block": retuple,
    "block_ids": _retuple_ids,
    "blocks": _retuple_ids,
    "trace": _mapping,
}

#: The exact decoded JSON types each scalar annotation takes. JSON
#: tells ``true`` from ``1``, so a ``bool`` is no ``int`` here; a
#: ``float`` field takes an integral number too.
_SCALAR_TYPES: dict[Any, tuple[type, ...]] = {
    int: (int,),
    float: (int, float),
    str: (str,),
    bool: (bool,),
    types.NoneType: (types.NoneType,),
}


def _scalar_types(hint: Any) -> tuple[type, ...] | None:
    """The decoded types a field annotated ``hint`` takes, or ``None``
    when ``hint`` is not a scalar type or a union of them."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    accepted: list[type] = []
    for arm in typing.get_args(hint) if union else (hint,):
        if arm not in _SCALAR_TYPES:
            return None
        accepted += _SCALAR_TYPES[arm]
    return tuple(dict.fromkeys(accepted))


#: The default of a field that has none: its absence is an error.
_REQUIRED: Any = object()


class WirePlan:
    """How one event class crosses the wire, built once from its
    dataclass fields.

    Encoding writes ``{"event": kind, <fields in declaration order>}``
    with the module's one encoder. Tuples come out as JSON arrays; only
    dict values pass through :func:`jsonable`, whose ``str(key)`` rule
    differs from JSON's own for bool, None, and tuple keys. Each line is
    therefore exactly the ``jsonable`` rendering of the event. Decoding
    walks the same fields: identifier fields are retupled, a scalar
    field must hold a type its annotation admits, absent defaulted
    fields take their default, extra keys are ignored, and a value no
    event could hold is refused. An engine event's ``run`` id is left
    to the event fold (:func:`repro.obs.replay.fold_runs`), which names
    the run; a :class:`CampaignEvent` joins no run, so its ``run`` is
    checked here.
    """

    __slots__ = ("cls", "kind", "names", "specs", "scalars")

    def __init__(self, cls: type[TraceEvent]) -> None:
        self.cls = cls
        self.kind = cls.kind
        self.names = tuple(f.name for f in fields(cls))  # declaration order
        #: ``(name, converter or None, default or _REQUIRED)``.
        self.specs = tuple(
            (
                f.name,
                _CONVERTERS.get(f.name),
                _REQUIRED if f.default is MISSING else f.default,
            )
            for f in fields(cls)
        )
        resolved = typing.get_type_hints(cls)
        unchecked = set(_CONVERTERS)
        if not issubclass(cls, CampaignEvent):
            unchecked.add("run")
        scalars: list[tuple[str, tuple[type, ...]]] = []
        for f in fields(cls):
            accepted = None if f.name in unchecked else _scalar_types(resolved[f.name])
            if accepted is not None:
                scalars.append((f.name, accepted))
        #: ``(name, decoded types)`` of each checked scalar field, checked
        #: after the fill. A step event (half the lines of a quick-sweep
        #: trace) has none, so it pays no check.
        self.scalars = tuple(scalars)

    def encode(self, event: TraceEvent) -> str:
        """The event's wire line (no trailing newline)."""
        payload: dict[str, Any] = {"event": self.kind}
        for name in self.names:
            value = getattr(event, name)
            payload[name] = jsonable(value) if isinstance(value, dict) else value
        return _encode(payload)

    def decode(self, payload: Mapping[str, Any]) -> TraceEvent:
        """Rebuild an event of this class from its decoded wire object.

        The event is built as :mod:`copy` and :mod:`pickle` rebuild a
        dataclass: ``cls.__new__(cls)`` (``object.__new__``), then its
        ``__dict__`` filled in field order. That skips ``__init__``,
        which is sound because no event class defines its own
        ``__init__`` or ``__post_init__``.
        """
        cls = self.cls
        event = cls.__new__(cls)
        fill = event.__dict__
        get = payload.get
        try:
            for name, convert, default in self.specs:
                value = get(name, default)
                if value is _REQUIRED:
                    raise ReproError(
                        f"{self.kind} event missing field {name!r}: {payload}"
                    )
                fill[name] = value if convert is None else convert(value)
            for name, accepted in self.scalars:
                value = fill[name]
                if type(value) not in accepted:
                    annotation = cls.__dataclass_fields__[name].type
                    raise ValueError(
                        f"is not {annotation}: {_ENCODER.encode(value)}"
                    )
        except ValueError as exc:  # a converter or a type check refused the value
            raise ReproError(f"{self.kind} event field {name!r} {exc}") from None
        return event


@dataclass(frozen=True)
class TraceEvent:
    """Base of all trace events; ``run`` ties an event to its run."""

    kind: ClassVar[str] = "?"

    run: int

    def to_json(self) -> str:
        """The event's wire form: one compact JSON object, the line a
        JSONL trace stores (without its newline)."""
        return _plan(type(self)).encode(self)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready wire form of this event (:meth:`to_json`,
        decoded)."""
        result: dict[str, Any] = json.loads(self.to_json())
        return result


@dataclass(frozen=True)
class RunStartEvent(TraceEvent):
    """A search run began.

    ``read_cost`` is the reliability layer's per-attempt modeled cost
    (``None`` on a reliable disk) — replay needs it to reconstruct
    ``io_time``.
    """

    kind: ClassVar[str] = "run_start"

    driver: str  # "path" | "adversary"
    block_size: int
    memory_size: int
    model: str  # "weak" | "strong"
    read_cost: float | None = None
    eviction: str | None = None  # unwrapped eviction policy class name


@dataclass(frozen=True)
class StepEvent(TraceEvent):
    """The pathfront crossed one edge, arriving at ``vertex``.

    ``blocks`` lists the resident blocks holding ``vertex`` at arrival
    (weak model; recorded in load order, the order ``visit`` refreshes
    their recency). An empty tuple means the arrival is uncovered and
    the fault/``block_read`` pair follows; ``None`` means holders were
    not tracked (strong model, or a pre-forensics trace). Forensics
    needs this because weak-model LRU refreshes *every* holder on every
    step — the miss-only block-read sequence is not the true reference
    string.
    """

    kind: ClassVar[str] = "step"

    vertex: Any
    blocks: tuple[Any, ...] | None = None


@dataclass(frozen=True)
class FaultEvent(TraceEvent):
    """The pathfront arrived at an uncovered vertex.

    ``gap`` is the steps since the previous fault (the entry appended
    to ``SearchTrace.fault_gaps``); ``index`` is the 1-based fault
    ordinal within the run.
    """

    kind: ClassVar[str] = "fault"

    vertex: Any
    gap: int
    index: int


@dataclass(frozen=True)
class BlockReadEvent(TraceEvent):
    """A block was successfully read and loaded to service a fault.

    ``occupancy``/``covered`` snapshot memory after the load — the
    working-set trajectory, one sample per fault.
    """

    kind: ClassVar[str] = "block_read"

    block_id: Any
    vertex: Any
    size: int
    occupancy: int
    covered: int


@dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """One *failed* physical read attempt.

    ``outcome`` is ``"transient"``, ``"corrupt"``, or ``"lost"``;
    ``delay`` is the granted backoff before the next attempt, ``None``
    when the failure was terminal (no retry granted). Every failed
    attempt emits exactly one of these, so ``failed_reads`` is their
    count and ``retries`` the count of those with a delay.
    """

    kind: ClassVar[str] = "retry"

    block_id: Any
    attempt: int
    outcome: str
    delay: float | None


@dataclass(frozen=True)
class FallbackEvent(TraceEvent):
    """A fault was serviced from an alternate replica after the chosen
    block proved unreadable (the storage blow-up as redundancy)."""

    kind: ClassVar[str] = "fallback"

    vertex: Any
    failed_block: Any
    block_id: Any


@dataclass(frozen=True)
class EvictionEvent(TraceEvent):
    """Memory freed room for an incoming block.

    ``block_ids`` lists the flushed blocks in the weak model (``None``
    in the strong model, where copies are individually evictable);
    ``copies`` is the number of vertex copies freed in either model;
    ``occupancy`` is memory occupancy after the flush.
    """

    kind: ClassVar[str] = "eviction"

    block_ids: tuple[Any, ...] | None
    copies: int
    occupancy: int


@dataclass(frozen=True)
class RunEndEvent(TraceEvent):
    """The run finished (normally or by error).

    ``trace`` is the engine's own final counter snapshot
    (:meth:`~repro.core.stats.SearchTrace.snapshot`) — the ground
    truth replay verifies its reconstruction against. ``error`` names
    the exception type when the run died mid-flight.
    """

    kind: ClassVar[str] = "run_end"

    trace: Mapping[str, Any]
    error: str | None = None


@dataclass(frozen=True)
class CampaignEvent(TraceEvent):
    """Base of the records that join no engine run (``shard_merged``
    and ``trace_footer``).

    ``run`` carries a campaign cell's index in the sweep (``-1`` for a
    trace-wide record), never an engine run id. The event fold
    (:func:`repro.obs.replay.fold_runs`) and the shard merge
    (:func:`repro.obs.spans.merge_shards`) dispatch on this base, so a
    framed trace still reconstructs exactly.
    """


@dataclass(frozen=True)
class ShardMergedEvent(CampaignEvent):
    """One worker's trace shard was folded into a merged campaign trace.

    The causality link of the telemetry plane: ``run`` is the cell's
    sweep index, ``span`` is the deterministic ``sweep/index/attempt``
    id, and the engine events that follow (until the next shard) carry
    globally renumbered run ids in ``[run_base, run_base + runs)``.
    ``events`` counts the shard's engine events, ``dropped`` the events
    its worker-side sink discarded (ring wrap), and ``complete`` is
    False when the shard file was missing or torn — a merged trace
    states its own completeness.
    """

    kind: ClassVar[str] = "shard_merged"

    cell: str
    attempt: int
    span: str
    run_base: int
    runs: int
    events: int
    dropped: int
    complete: bool = True


@dataclass(frozen=True)
class TraceFooterEvent(CampaignEvent):
    """The last event of a finished trace (shard or merged campaign).

    ``events_emitted`` is the number of events written before this
    footer; ``events_dropped`` the number the sink discarded (a
    :class:`~repro.obs.sinks.RingBufferSink` wrapping, for example).
    A reader finding fewer events than the footer declares — or no
    footer at all — knows the trace is torn rather than short.
    """

    kind: ClassVar[str] = "trace_footer"

    events_emitted: int
    events_dropped: int = 0


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        RunStartEvent,
        StepEvent,
        FaultEvent,
        BlockReadEvent,
        RetryEvent,
        FallbackEvent,
        EvictionEvent,
        RunEndEvent,
        ShardMergedEvent,
        TraceFooterEvent,
    )
}


#: The wire plan of every registered event class, built at import.
_PLANS: dict[type[TraceEvent], WirePlan] = {
    cls: WirePlan(cls) for cls in EVENT_TYPES.values()
}

#: The same plans by wire kind: the one lookup a decoded line needs.
_KIND_PLANS: dict[str, WirePlan] = {plan.kind: plan for plan in _PLANS.values()}


def _plan(cls: type[TraceEvent]) -> WirePlan:
    """The shared plan of a registered class; any other subclass gets a
    fresh one."""
    return _PLANS.get(cls) or WirePlan(cls)


def event_from_dict(payload: Mapping[str, Any]) -> TraceEvent:
    """Rebuild an event from its wire form.

    Identifier fields (vertices, block ids) are retupled; raises
    :class:`ReproError` on unknown kinds or on missing fields that have
    no default (absent defaulted fields fall back to their default, so
    traces written before a field existed still parse).
    """
    plan = _KIND_PLANS.get(payload.get("event"))
    if plan is None:
        raise ReproError(f"unknown trace event kind {payload.get('event')!r}")
    return plan.decode(payload)
