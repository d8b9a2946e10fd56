"""A small metrics registry: counters, gauges, histograms.

Stdlib-only. Every instrument carries its own lock: the engine itself
is single-threaded modeled time, but the search service
(:mod:`repro.service`) updates one shared registry from a pool of
worker threads, and concurrent increments must sum exactly — a lost
``+=`` would silently undercount. The registry is a flat namespace of
named instruments with a JSON-ready :meth:`MetricsRegistry.snapshot`,
which is what ``python -m repro.experiments --metrics`` prints and the
benchmarks fold into their ``BENCH_*.json`` rollups.

Instruments:

* :class:`Counter` — monotone count (faults, retries, evicted blocks);
* :class:`LabeledCounter` — a counter per key (reads *per block id*,
  the thrash map);
* :class:`Gauge` — last-written value (current working-set size);
* :class:`Histogram` — exact value->occurrences map plus running
  min/max/sum (fault gaps, working-set samples). Exact counting is
  affordable because the observed values are small ints.

Every instrument is **mergeable**: counters and histograms add, gauges
keep the most recently merged write, labeled counters add per key.
That makes a registry a CRDT-ish aggregate across processes — campaign
and pool workers dump :meth:`MetricsRegistry.to_wire` next to their
result spill, and the parent folds the shards back together with
:meth:`MetricsRegistry.merge_wire` (the telemetry plane of
:mod:`repro.obs.spans`). The wire form tags every instrument with its
kind and preserves numeric key types exactly, so a merged snapshot is
indistinguishable from one recorded in a single process.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

from repro.errors import ReproError

METRICS_WIRE_SCHEMA = 1


def _wire_key(key: Any) -> Any:
    """A labeled-counter key in wire form (tuples become lists)."""
    if isinstance(key, tuple):
        return [_wire_key(k) for k in key]
    if isinstance(key, (int, float, str, bool)) or key is None:
        return key
    return str(key)


def _unwire_key(key: Any) -> Hashable:
    """Undo :func:`_wire_key` (lists back to tuples, recursively)."""
    if isinstance(key, list):
        return tuple(_unwire_key(k) for k in key)
    result: Hashable = key
    return result


def nearest_rank(q: float, count: int) -> int:
    """The 1-based rank of the ``q``-th percentile among ``count``
    ordered values: ``ceil(q/100 * count)``, at least 1 (the
    nearest-rank rule; ``q`` in [0, 100], else ``ValueError``).

    The rank is exact: integer arithmetic for an integral ``q``, a
    ``Fraction`` otherwise. The obvious float route (``int(q * count)``
    then ceil-divide) truncates the product first, so a q*count that
    float-rounds a hair below an integer lands one rank too low.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if q == int(q):
        rank = -(-int(q) * count // 100)
    else:
        rank = math.ceil(Fraction(q) * count / 100)
    return max(1, rank)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        with self._lock:
            return self.value

    def to_wire(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "counter", "value": self.value}

    def merge_wire(self, payload: Mapping[str, Any]) -> None:
        self.inc(int(payload["value"]))


class Gauge:
    """The most recently written value (None until first set)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def snapshot(self) -> float | None:
        with self._lock:
            return self.value

    def to_wire(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "gauge", "value": self.value}

    def merge_wire(self, payload: Mapping[str, Any]) -> None:
        """The merged write wins (unless unset). Across processes "most
        recent" is merge order — the campaign merges shards in cell
        order, so the last cell's write survives, mirroring what a
        single-process sweep would have left behind."""
        value = payload["value"]
        if value is not None:
            self.set(value)


class LabeledCounter:
    """A family of counts keyed by label (e.g. per-block read counts)."""

    __slots__ = ("counts", "_lock")

    def __init__(self) -> None:
        self.counts: dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def inc(self, key: Hashable, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def top(self, n: int = 10) -> list[tuple[Hashable, int]]:
        """The ``n`` hottest keys, descending."""
        with self._lock:
            items = list(self.counts.items())
        return sorted(items, key=lambda kv: (-kv[1], str(kv[0])))[:n]

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            items = list(self.counts.items())
        return {str(k): v for k, v in sorted(items, key=lambda kv: str(kv[0]))}

    def to_wire(self) -> dict[str, Any]:
        # Pairs, not a dict: tuple keys (block ids) must survive the
        # round-trip as tuples, and JSON objects would stringify them.
        with self._lock:
            items = list(self.counts.items())
        return {
            "kind": "labeled_counter",
            "counts": [
                [_wire_key(k), v]
                for k, v in sorted(items, key=lambda kv: str(kv[0]))
            ],
        }

    def merge_wire(self, payload: Mapping[str, Any]) -> None:
        for key, amount in payload["counts"]:
            self.inc(_unwire_key(key), int(amount))


class Histogram:
    """Exact distribution of observed values."""

    __slots__ = ("counts", "count", "total", "minimum", "maximum", "_lock")

    def __init__(self) -> None:
        self.counts: dict[float, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[value] = self.counts.get(value, 0) + 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float | None:
        with self._lock:
            return self.total / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """The exact ``q``-th percentile (:func:`nearest_rank` on the
        value counts; ``q`` in [0, 100]). ``None`` before any
        observation.

        Exact counting means this is the true order statistic, not a
        bucket estimate — the latency/throughput summaries the ops
        report prints come straight from here.
        """
        with self._lock:
            counts = dict(self.counts)
            count = self.count
            maximum = self.maximum
        rank = nearest_rank(q, count)
        if count == 0:
            return None
        seen = 0
        for value in sorted(counts):
            seen += counts[value]
            if seen >= rank:
                return value
        return maximum

    def percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[str, float | None]:
        """Several percentiles at once, keyed ``"p50"``-style."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def snapshot(self) -> dict[str, Any]:
        # One coherent view under one lock acquisition: the mean is
        # computed inline (the `mean` property re-takes the
        # non-reentrant lock) and count/sum/min/max all come from the
        # same instant — no torn multi-field snapshots.
        with self._lock:
            count = self.count
            total = self.total
            minimum = self.minimum
            maximum = self.maximum
            values = sorted(self.counts.items())
        return {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": total / count if count else None,
            "values": {str(k): v for k, v in values},
        }

    def to_wire(self) -> dict[str, Any]:
        # Value/count pairs keep int observations as ints through JSON,
        # so a merged snapshot's "values" keys print identically to a
        # single-process registry's.
        with self._lock:
            counts = sorted(self.counts.items())
        return {
            "kind": "histogram",
            "counts": [[k, v] for k, v in counts],
        }

    def merge_wire(self, payload: Mapping[str, Any]) -> None:
        with self._lock:
            for value, occurrences in payload["counts"]:
                self.counts[value] = self.counts.get(value, 0) + int(occurrences)
                self.count += int(occurrences)
                self.total += value * int(occurrences)
                if self.minimum is None or value < self.minimum:
                    self.minimum = value
                if self.maximum is None or value > self.maximum:
                    self.maximum = value


class MetricsRegistry:
    """Named instruments, created on first touch.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type[Any]) -> Any:
        # Creation races (two threads first-touching the same name)
        # must resolve to one shared instrument, or early increments
        # land on an orphan and vanish from the snapshot.
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls()
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def labeled_counter(self, name: str) -> LabeledCounter:
        return self._get(name, LabeledCounter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, Any]:
        """All instruments as plain JSON-ready values, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}

    def to_wire(self) -> dict[str, Any]:
        """The lossless, kind-tagged form :meth:`merge_wire` consumes.

        Unlike :meth:`snapshot` (which is for humans and rollups), the
        wire form preserves instrument kinds and numeric key types, so
        a registry shipped through JSON merges exactly — this is what
        campaign/pool workers write next to their result spill.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return {
            "schema": METRICS_WIRE_SCHEMA,
            "metrics": {name: instrument.to_wire() for name, instrument in items},
        }

    def merge_wire(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_wire` payload (e.g. a worker's metrics
        shard) into this registry."""
        schema = payload.get("schema")
        if schema != METRICS_WIRE_SCHEMA:
            raise ReproError(
                f"unsupported metrics wire schema {schema!r}; "
                f"expected {METRICS_WIRE_SCHEMA}"
            )
        kinds: dict[str, type[Any]] = {
            "counter": Counter,
            "gauge": Gauge,
            "labeled_counter": LabeledCounter,
            "histogram": Histogram,
        }
        for name, wire in sorted(payload["metrics"].items()):
            cls = kinds.get(wire.get("kind"))
            if cls is None:
                raise ReproError(
                    f"unknown metric kind {wire.get('kind')!r} for {name!r}"
                )
            self._get(name, cls).merge_wire(wire)

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """A fresh registry rebuilt from a :meth:`to_wire` payload."""
        registry = cls()
        registry.merge_wire(payload)
        return registry

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
