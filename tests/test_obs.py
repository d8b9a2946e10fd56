"""The observability subsystem: events, sinks, metrics, replay.

The load-bearing invariants:

* configuring instrumentation never changes what the engine computes —
  instrumented and uninstrumented runs produce *equal* traces;
* a JSONL event stream is a complete record — ``repro.obs.replay``
  reconstructs every ``SearchTrace`` counter exactly, ``io_time``
  included, and verifies it against the engine's own ``run_end``
  snapshot;
* ``Memory.covered_count`` (the working-set size the hooks sample
  once per fault) always agrees with ``len(covered_vertices())``.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import FirstBlockPolicy, ModelParams, Searcher
from repro.adversaries import RandomWalkAdversary
from repro.blockings import contiguous_1d_blocking, offset_1d_blocking
from repro.core.block import Block
from repro.core.memory import StrongMemory, WeakMemory
from repro.core.model import PagingModel
from repro.core.stats import SearchTrace
from repro.errors import BlockReadError, ReproError
from repro.graphs import InfiniteGridGraph
from repro.obs import (
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    SweepProgress,
    bench_rollup,
    current_instrumentation,
    read_jsonl,
    use_instrumentation,
    write_bench_json,
)
from repro.obs.events import (
    EVENT_TYPES,
    BlockReadEvent,
    EvictionEvent,
    FallbackEvent,
    FaultEvent,
    RetryEvent,
    RunEndEvent,
    RunStartEvent,
    ShardMergedEvent,
    StepEvent,
    TraceFooterEvent,
    event_from_dict,
    jsonable,
)
from repro.obs.forensics import main as forensics_main
from repro.obs.report import main as report_main
from repro.obs.replay import (
    diff_runs,
    diff_traces,
    fault_timeline,
    gap_histogram_ascii,
    replay_events,
    replay_file,
    verify_run,
)
from repro.obs.replay import main as replay_main
from repro.reliability import (
    ExponentialBackoff,
    LostBlocks,
    ProbabilisticFaults,
    ReliabilityConfig,
)


B = 8
LINE = InfiniteGridGraph(1)
PARAMS = ModelParams(B, 2 * B)


def walk(n: int = 200) -> list[tuple[int]]:
    return [(i,) for i in range(n)]


def make_searcher(**kwargs) -> Searcher:
    return Searcher(
        LINE, contiguous_1d_blocking(B), FirstBlockPolicy(), PARAMS, **kwargs
    )


def faulty_config(seed: int = 9) -> ReliabilityConfig:
    return ReliabilityConfig(
        injector=ProbabilisticFaults(
            transient_rate=0.25, loss_rate=0.02, seed=seed
        ),
        retry=ExponentialBackoff(max_attempts=4, jitter=0.5, seed=seed),
        step_budget=200_000,
    )


# -- typed events -------------------------------------------------------


class TestEvents:
    EXAMPLES = [
        RunStartEvent(
            run=0, driver="path", block_size=8, memory_size=16,
            model="weak", read_cost=1.0,
        ),
        RunStartEvent(
            run=0, driver="path", block_size=8, memory_size=16,
            model="weak", read_cost=1.0, eviction="LruEviction",
        ),
        StepEvent(run=0, vertex=(3,)),
        StepEvent(run=0, vertex=(3,), blocks=((0, (0,)), (1, (0,)))),
        FaultEvent(run=0, vertex=(8,), gap=7, index=1),
        BlockReadEvent(
            run=0, block_id=(1, (0,)), vertex=(8,), size=8,
            occupancy=16, covered=12,
        ),
        RetryEvent(run=0, block_id=(1, (0,)), attempt=2,
                   outcome="transient", delay=0.25),
        FallbackEvent(run=0, vertex=(8,), failed_block=(1, (0,)),
                      block_id=(0, (1,))),
        EvictionEvent(run=0, block_ids=((0, (0,)), (1, (0,))),
                      copies=16, occupancy=0),
        RunEndEvent(run=0, trace=SearchTrace(steps=9).snapshot(), error=None),
        ShardMergedEvent(
            run=2, cell="grid1d", attempt=1, span="quick/2/1", run_base=5,
            runs=3, events=40, dropped=0,
        ),
        TraceFooterEvent(run=-1, events_emitted=41),
    ]

    def test_examples_cover_every_registered_kind(self):
        assert {event.kind for event in self.EXAMPLES} == set(EVENT_TYPES)

    @pytest.mark.parametrize(
        "event", EXAMPLES, ids=lambda e: type(e).__name__
    )
    def test_dict_round_trip(self, event):
        """to_dict -> JSON -> event_from_dict is the identity, tuple
        identifiers included (JSON turns them into lists), and so is
        decoding the wire line; the rebuilt event hashes alike."""
        wire = json.loads(json.dumps(event.to_dict()))
        assert event_from_dict(wire) == event
        decoded = event_from_dict(json.loads(event.to_json()))
        assert decoded == event
        assert vars(decoded) == vars(event)
        if isinstance(event, RunEndEvent):  # its trace is a dict: no hash
            with pytest.raises(TypeError):
                hash(decoded)
        else:
            assert hash(decoded) == hash(event)

    @pytest.mark.parametrize("cls", sorted(EVENT_TYPES.values(), key=str))
    def test_no_event_class_runs_code_at_construction(self, cls):
        """The decoder builds an event with ``cls.__new__`` and fills its
        ``__dict__``, skipping ``__init__``: sound only while no event
        class, nor a base of one, defines ``__init__`` or
        ``__post_init__`` (the dataclass-made ``__init__`` only stores
        the fields)."""
        for klass in cls.__mro__[:-1]:  # every class but object
            (node,) = ast.parse(textwrap.dedent(inspect.getsource(klass))).body
            assert isinstance(node, ast.ClassDef)
            defined = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assert not defined & {"__init__", "__post_init__"}, klass

    @pytest.mark.parametrize("payload, says", [
        ({"event": "fault", "run": 0, "vertex": [1, [{"x": 1}]], "gap": 1,
          "index": 1},
         "fault event field 'vertex' holds a JSON object"),
        ({"event": "step", "run": 0, "vertex": [3], "blocks": "ab"},
         "step event field 'blocks' is neither null nor an array"),
        ({"event": "eviction", "run": 0, "block_ids": 3, "copies": 8,
          "occupancy": 0},
         "eviction event field 'block_ids' is neither null nor an array"),
        ({"event": "run_end", "run": 0, "trace": "done"},
         "run_end event field 'trace' is not a JSON object"),
    ], ids=["nested-object-vertex", "string-blocks", "int-block-ids",
            "string-trace"])
    def test_fields_no_event_could_hold_are_refused(self, payload, says):
        """The decoder's refusals that ``TestMalformedFields`` does not
        drive through the CLIs."""
        with pytest.raises(ReproError, match=f"^{says}: "):
            event_from_dict(payload)

    def test_unknown_kind_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            event_from_dict({"event": "nope"})

    def test_pre_forensics_wire_forms_take_field_defaults(self):
        """Traces recorded before holder tracking — no ``blocks`` on
        steps, no ``eviction`` on run_start — still parse: an absent
        field with a dataclass default falls back to it. Required
        fields stay required."""
        from repro.errors import ReproError

        step = event_from_dict({"event": "step", "run": 0, "vertex": [3]})
        assert step == StepEvent(run=0, vertex=(3,), blocks=None)
        payload = RunStartEvent(
            run=0, driver="path", block_size=8, memory_size=16, model="weak",
        ).to_dict()
        del payload["eviction"], payload["read_cost"]
        start = event_from_dict(payload)
        assert start.eviction is None and start.read_cost is None
        with pytest.raises(ReproError, match="missing field"):
            event_from_dict({"event": "step", "run": 0})  # no default


# -- wire codec ---------------------------------------------------------


def reference_line(event) -> str:
    """The wire rule every JSONL line must match byte for byte: all
    fields, in declaration order, through ``jsonable``, then compact
    ``json.dumps``."""
    payload = {"event": event.kind}
    payload.update(
        {f.name: getattr(event, f.name) for f in dataclasses.fields(event)}
    )
    return json.dumps(jsonable(payload), separators=(",", ":"))


def sink_line(event) -> str:
    """The one line :class:`JsonlSink` writes for ``event``."""
    stream = io.StringIO()
    JsonlSink(stream=stream).emit(event)
    line, newline, rest = stream.getvalue().partition("\n")
    assert newline and not rest
    return line


def event_strategy(identifiers, values, mapping):
    """Events of every kind in ``EVENT_TYPES``: identifier fields drawn
    from ``identifiers``, ``RunEndEvent.trace`` from ``mapping``, and
    every other field from ``values(field)``."""

    def build(cls):
        def field_values(field):
            if field.name == "trace":
                return mapping
            if field.name in ("blocks", "block_ids"):
                return st.none() | st.lists(identifiers, max_size=3).map(tuple)
            if field.name in ("vertex", "block_id", "failed_block"):
                return identifiers
            return values(field)

        return st.fixed_dictionaries(
            {f.name: field_values(f) for f in dataclasses.fields(cls)}
        ).map(lambda kwargs: cls(**kwargs))

    return st.sampled_from(sorted(EVENT_TYPES)).map(EVENT_TYPES.get).flatmap(build)


class Opaque:
    """A leaf JSON cannot encode: the wire falls back to ``str``."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __str__(self) -> str:
        return f"opaque<{self.tag}>"


class TestWireCodec:
    def test_sink_lines_match_the_jsonable_rule(self):
        """Whatever an event holds (nested tuples, NaN, infinities,
        bools, None, a leaf that falls back to ``str``, trace mappings
        keyed by ints, bools, None or tuples), the sink writes exactly
        the reference line."""
        scalars = st.one_of(
            st.integers(),
            st.text(max_size=6),
            st.booleans(),
            st.none(),
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.integers(0, 9).map(Opaque),
        )
        values = st.recursive(
            scalars, lambda inner: st.lists(inner, max_size=3).map(tuple),
            max_leaves=8,
        )
        keys = st.one_of(
            st.integers(-3, 3),
            st.booleans(),
            st.none(),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.text(max_size=3),
        )
        mapping = st.dictionaries(keys, values, max_size=5)

        @given(event_strategy(values, lambda field: values, mapping))
        @settings(max_examples=300, deadline=None)
        def check(event):
            assert sink_line(event) == reference_line(event)

        check()

    def test_lines_round_trip_and_defaults_fill_in(self):
        """With hashable int/str/tuple identifiers and every scalar field
        holding a type its annotation admits, decoding a sink line
        rebuilds the event exactly; dropping any defaulted field from
        the payload still parses, to that field's default."""
        identifiers = st.recursive(
            st.integers() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3).map(tuple),
            max_leaves=6,
        )
        text = st.text(max_size=6)
        scalars = {
            "int": st.integers(),
            "float | None": st.integers() | st.floats(allow_nan=False) | st.none(),
            "str": text,
            "str | None": text | st.none(),
            "bool": st.booleans(),
        }
        values = st.one_of(
            st.integers(), text, st.booleans(), st.none(),
            st.floats(allow_nan=False),
        )
        mapping = st.dictionaries(st.text(max_size=4), values, max_size=4)

        @given(
            event_strategy(identifiers, lambda field: scalars[field.type], mapping),
            st.data(),
        )
        @settings(max_examples=300, deadline=None)
        def check(event, data):
            payload = json.loads(sink_line(event))
            assert event_from_dict(payload) == event
            defaulted = [
                f for f in dataclasses.fields(event)
                if f.default is not dataclasses.MISSING
            ]
            if defaulted:
                dropped = data.draw(st.sampled_from(defaulted))
                del payload[dropped.name]
                assert event_from_dict(payload) == dataclasses.replace(
                    event, **{dropped.name: dropped.default}
                )

        check()


# -- sinks --------------------------------------------------------------


class TestSinks:
    def test_ring_buffer_keeps_last_capacity(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit(StepEvent(run=0, vertex=(i,)))
        assert [e.vertex for e in sink.events] == [(7,), (8,), (9,)]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [
            StepEvent(run=0, vertex=(1,)),
            FaultEvent(run=0, vertex=(2,), gap=1, index=0),
        ]
        with JsonlSink(path) as sink:
            for e in events:
                sink.emit(e)
            assert sink.events_written == 2
        assert list(read_jsonl(path)) == events

    def test_null_sink_accepts_anything(self):
        NullSink().emit(StepEvent(run=0, vertex=(1,)))

    def test_ring_buffer_accounts_for_drops(self):
        """Wrapping the ring is lossy on purpose, but never silently:
        the sink counts its drops, the number a shard's footer carries."""
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit(StepEvent(run=0, vertex=(i,)))
        assert sink.events_dropped == 7
        # A ring that never wraps reports zero drops.
        assert RingBufferSink(capacity=16).events_dropped == 0

    def test_jsonl_emit_after_close_raises_and_keeps_the_file(self, tmp_path):
        """A closed sink does not reopen its path: that would truncate
        the events it already wrote while ``events_written`` counted
        on. ``close()`` stays idempotent."""
        from repro.errors import ReproError

        path = tmp_path / "t.jsonl"
        events = [StepEvent(run=0, vertex=(i,)) for i in range(3)]
        sink = JsonlSink(path)
        for event in events:
            sink.emit(event)
        sink.close()
        sink.close()
        with pytest.raises(ReproError, match=r"t\.jsonl: event after close"):
            sink.emit(StepEvent(run=0, vertex=(3,)))
        assert sink.events_written == 3
        assert list(read_jsonl(path)) == events

    def test_second_shard_close_keeps_the_sealed_shard(self, tmp_path):
        from repro.errors import ReproError
        from repro.obs import ShardRecorder, read_shard

        recorder = ShardRecorder(tmp_path / "s.jsonl", tmp_path / "s.json")
        recorder.sink.emit(StepEvent(run=0, vertex=(0,)))
        recorder.close()
        with pytest.raises(ReproError, match="event after close"):
            recorder.close()
        events, footer = read_shard(tmp_path / "s.jsonl")
        assert events == [StepEvent(run=0, vertex=(0,))]
        assert footer is not None and footer.events_emitted == 1


# -- metrics ------------------------------------------------------------


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.snapshot()["x"] == 5
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        for v in (1, 1, 2, 5):
            reg.histogram("gaps").observe(v)
        snap = reg.snapshot()["gaps"]
        assert snap["count"] == 4
        assert snap["min"] == 1 and snap["max"] == 5
        assert snap["mean"] == pytest.approx(2.25)
        assert snap["values"] == {"1": 2, "2": 1, "5": 1}

    def test_labeled_counter_top(self):
        reg = MetricsRegistry()
        counter = reg.labeled_counter("reads")
        for key, n in (("a", 3), ("b", 5), ("c", 1)):
            counter.inc(key, n)
        assert counter.top(2) == [("b", 5), ("a", 3)]

    def test_to_json_is_valid(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.5)
        assert json.loads(reg.to_json())["g"] == 2.5

    def test_histogram_percentiles_nearest_rank(self):
        hist = MetricsRegistry().histogram("gaps")
        for v in range(1, 11):
            hist.observe(v)
        assert hist.percentile(0) == 1
        assert hist.percentile(50) == 5
        assert hist.percentile(90) == 9
        assert hist.percentile(99) == 10
        assert hist.percentile(100) == 10
        assert hist.percentiles() == {"p50": 5, "p90": 9, "p99": 10}
        with pytest.raises(ValueError):
            hist.percentile(101)
        assert MetricsRegistry().histogram("empty").percentile(50) is None

    def test_histogram_percentile_edge_cases(self):
        """Empty -> None everywhere; a single bucket answers every q
        (q=0 and q=100 are the min/max order statistics)."""
        empty = MetricsRegistry().histogram("empty")
        assert empty.percentiles() == {"p50": None, "p90": None, "p99": None}
        assert empty.percentile(0) is None and empty.percentile(100) is None
        single = MetricsRegistry().histogram("one")
        for _ in range(5):
            single.observe(7)  # one bucket, several observations
        assert [single.percentile(q) for q in (0, 50, 100)] == [7, 7, 7]
        assert single.percentiles((0, 100)) == {"p0": 7, "p100": 7}

    def test_merged_histogram_percentiles_match_single_process(self):
        """Exact counting makes the merge lossless, so every percentile
        of round-robin-sharded observations equals the single-process
        answer — the property the campaign's metrics merge rides."""
        from repro.obs import Histogram

        values = [5, 1, 9, 1, 7, 3, 3, 8, 2, 6, 4]
        whole = Histogram()
        shards = [Histogram() for _ in range(3)]
        for i, v in enumerate(values):
            whole.observe(v)
            shards[i % 3].observe(v)
        merged = Histogram()
        for shard in shards:
            merged.merge_wire(shard.to_wire())
        for q in (0, 25, 50, 75, 90, 99, 100):
            assert merged.percentile(q) == whole.percentile(q), q

    def _fill(self, reg, offset):
        reg.counter("faults").inc(3 + offset)
        reg.gauge("covered").set(float(offset))
        reg.labeled_counter("reads").inc((1, (0,)), 2)
        reg.labeled_counter("reads").inc("other", offset + 1)
        reg.histogram("gaps").observe(offset)
        reg.histogram("gaps").observe(7)

    def test_registry_merge_matches_single_process(self):
        """The mergeability contract: two per-worker registries folded
        together are indistinguishable from one registry that saw
        everything (gauge last-write-wins follows merge order)."""
        single = MetricsRegistry()
        self._fill(single, 1)
        self._fill(single, 2)
        a, b = MetricsRegistry(), MetricsRegistry()
        self._fill(a, 1)
        self._fill(b, 2)
        merged = MetricsRegistry()
        merged.merge_wire(a.to_wire())
        merged.merge_wire(b.to_wire())
        assert merged.to_json() == single.to_json()

    def test_wire_round_trip_is_lossless(self):
        """to_wire -> JSON -> merge_wire preserves instrument kinds and
        key types exactly — tuple block ids and int histogram values
        come back as tuples and ints, not strings."""
        reg = MetricsRegistry()
        self._fill(reg, 2)
        rebuilt = MetricsRegistry.from_wire(
            json.loads(json.dumps(reg.to_wire()))
        )
        assert rebuilt.to_json() == reg.to_json()
        assert rebuilt.labeled_counter("reads").counts == {
            (1, (0,)): 2,
            "other": 3,
        }
        assert rebuilt.histogram("gaps").counts == {2: 1, 7: 1}

    def test_wire_schema_mismatch_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            MetricsRegistry().merge_wire({"schema": 99, "metrics": {}})


class TestPercentileExactRank:
    """The fractional-percentile fix: the rank is ``ceil(q/100 * n)``
    in exact rational arithmetic. The old float route truncated
    ``q * count`` before the ceiling, so a product that float-rounds a
    hair *above* an integer (e.g. ``33.333...336 * 3 == 100.000...01``)
    collapsed to rank 1 instead of 2."""

    def test_fractional_q_regression(self):
        from repro.obs import Histogram

        hist = Histogram()
        for value in (1, 2, 3):
            hist.observe(value)
        q = 100.0 / 3 + 1e-14  # floats to 33.333333333333336 > 1/3
        assert q * 3 > 100.0  # the float product that fooled int()
        assert hist.percentile(q) == 2

    def test_matches_sorted_list_reference(self):
        import math
        from fractions import Fraction

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.obs import Histogram

        @given(
            st.lists(st.integers(-50, 50), min_size=1, max_size=60),
            st.floats(
                min_value=0.0,
                max_value=100.0,
                exclude_min=True,
                allow_nan=False,
            )
            | st.integers(0, 100),
        )
        @settings(max_examples=200, deadline=None)
        def check(values, q):
            hist = Histogram()
            for value in values:
                hist.observe(value)
            ordered = sorted(values)
            # Nearest-rank from first principles, in exact arithmetic.
            rank = max(1, math.ceil(Fraction(q) * len(values) / 100))
            assert hist.percentile(q) == ordered[rank - 1]

        check()


class TestMetricsThreadSafety:
    """Instruments are shared by the service's worker pool: concurrent
    updates must sum exactly (no lost increments, no torn histograms)
    and a first-touch creation race must resolve to one instrument."""

    THREADS = 8
    ROUNDS = 400

    def hammer(self, work):
        import threading

        errors = []

        def run(worker):
            try:
                work(worker)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_concurrent_counter_and_histogram_sum_exactly(self):
        reg = MetricsRegistry()

        def work(worker):
            for i in range(self.ROUNDS):
                # Re-fetch by name every round: the lookup path is part
                # of what must be safe.
                reg.counter("hits").inc()
                reg.labeled_counter("by_tenant").inc(f"t{worker % 2}")
                reg.histogram("latency").observe(float(i % 5))

        self.hammer(work)
        total = self.THREADS * self.ROUNDS
        assert reg.counter("hits").value == total
        assert sum(reg.labeled_counter("by_tenant").counts.values()) == total
        hist = reg.histogram("latency")
        assert hist.count == total
        assert sum(hist.counts.values()) == total
        assert hist.total == pytest.approx(
            self.THREADS * sum(float(i % 5) for i in range(self.ROUNDS))
        )

    def test_creation_race_yields_one_instrument(self):
        import threading

        reg = MetricsRegistry()
        barrier = threading.Barrier(self.THREADS)
        seen = []
        lock = threading.Lock()

        def work(worker):
            barrier.wait()
            counter = reg.counter("first_touch")
            counter.inc()
            with lock:
                seen.append(counter)

        self.hammer(work)
        # Every thread got the same object, so no increment landed on
        # an orphan instrument invisible to the snapshot.
        assert all(counter is seen[0] for counter in seen)
        assert reg.snapshot()["first_touch"] == self.THREADS

    def test_snapshots_race_mutation_without_tearing(self):
        # Regression (RL008): snapshot/to_wire/top/percentile used to
        # read instrument state bare — a concurrent inc could tear a
        # multi-field histogram view or blow up labeled-counter
        # iteration with "dictionary changed size during iteration".
        import threading

        reg = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def read_loop():
            try:
                while not stop.is_set():
                    reg.snapshot()
                    reg.to_wire()
                    reg.labeled_counter("by_tenant").top(3)
                    reg.histogram("latency").percentile(99.0)
                    _ = reg.histogram("latency").mean
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        reader = threading.Thread(target=read_loop)
        reader.start()

        def work(worker):
            for i in range(self.ROUNDS):
                reg.counter("hits").inc()
                # Fresh keys every round keep the dict growing under
                # the reader's iteration.
                reg.labeled_counter("by_tenant").inc((worker, i))
                reg.histogram("latency").observe(float(i % 7))

        try:
            self.hammer(work)
        finally:
            stop.set()
            reader.join()
        assert errors == []
        total = self.THREADS * self.ROUNDS
        snap = reg.snapshot()
        assert snap["hits"] == total
        assert snap["latency"]["count"] == total
        # A coherent single-lock snapshot: mean * count == sum exactly.
        assert snap["latency"]["mean"] * snap["latency"]["count"] == (
            pytest.approx(snap["latency"]["sum"])
        )


# -- the engine under instrumentation -----------------------------------


class TestInstrumentedSearch:
    def test_instrumentation_does_not_change_the_trace(self):
        """The acceptance criterion: configured instrumentation is
        invisible to the search itself."""
        plain = make_searcher().run_path(walk())
        instr = Instrumentation(sink=RingBufferSink())
        traced = make_searcher(instrumentation=instr).run_path(walk())
        assert dataclasses.asdict(plain) == dataclasses.asdict(traced)

    def test_instrumentation_invisible_under_faults(self):
        def run(instrumentation=None):
            # s=2 offset blocking: lost blocks fall back to the replica
            # instead of killing the run.
            return Searcher(
                LINE, offset_1d_blocking(B), FirstBlockPolicy(),
                ModelParams(B, 2 * B), reliability=faulty_config(),
                instrumentation=instrumentation,
            ).run_adversary(RandomWalkAdversary(LINE, (0,), seed=5), 500)

        plain = run()
        traced = run(Instrumentation(sink=RingBufferSink()))
        assert dataclasses.asdict(plain) == dataclasses.asdict(traced)

    def test_jsonl_replay_reconstructs_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        instr = Instrumentation(sink=JsonlSink(path))
        trace = make_searcher(instrumentation=instr).run_path(walk())
        instr.close()
        (run,) = replay_file(path)
        assert verify_run(run) == []
        assert run.trace == trace
        assert run.driver == "path"
        assert run.complete

    def test_replay_exact_under_faults_and_fallbacks(self, tmp_path):
        """Retries, backoff delays, and replica fallbacks all
        reconstruct — io_time to the last bit."""
        path = tmp_path / "trace.jsonl"
        instr = Instrumentation(sink=JsonlSink(path))
        searcher = Searcher(
            LINE, offset_1d_blocking(B), FirstBlockPolicy(), ModelParams(B, 2 * B),
            reliability=faulty_config(), instrumentation=instr,
        )
        trace = searcher.run_adversary(
            RandomWalkAdversary(LINE, (0,), seed=5), 2000
        )
        instr.close()
        assert trace.retries > 0 and trace.fallback_reads > 0  # not a tame run
        (run,) = replay_file(path)
        assert verify_run(run) == []
        assert run.trace == trace
        assert run.trace.io_time == trace.io_time

    def test_metrics_match_trace_counters(self):
        metrics = MetricsRegistry()
        instr = Instrumentation(metrics=metrics)
        trace = Searcher(
            LINE, offset_1d_blocking(B), FirstBlockPolicy(), ModelParams(B, 2 * B),
            reliability=faulty_config(), instrumentation=instr,
        ).run_adversary(RandomWalkAdversary(LINE, (0,), seed=5), 2000)
        snap = metrics.snapshot()
        assert snap["runs"] == 1
        assert snap["steps"] == trace.steps
        assert snap["faults"] == trace.faults
        assert snap["block_reads"] == trace.blocks_read
        # Instruments appear on first increment, so counters that never
        # fired (e.g. corrupt_reads under a corruption-free injector)
        # are simply absent.
        assert snap["failed_reads"] == trace.failed_reads
        assert snap["retries"] == trace.retries
        assert snap.get("corrupt_reads", 0) == trace.corrupt_reads
        assert snap.get("fallback_reads", 0) == trace.fallback_reads
        assert snap["fault_gap"]["count"] == len(trace.fault_gaps)
        assert sum(snap["reads_per_block"].values()) == trace.blocks_read

    def test_eviction_churn_counted(self):
        metrics = MetricsRegistry()
        instr = Instrumentation(metrics=metrics)
        make_searcher(instrumentation=instr).run_path(walk(400))
        snap = metrics.snapshot()
        # A 400-vertex line through M = 2B = 16 must evict repeatedly.
        assert snap["evictions"] > 10
        assert snap["evicted_copies"] >= snap["evictions"] * B

    def test_errored_run_recorded_and_replayable(self, tmp_path):
        """A lost block with no replica kills the run; the event stream
        still ends with a run_end carrying the error and the partial
        trace — and still reconstructs."""
        path = tmp_path / "trace.jsonl"
        blocking = contiguous_1d_blocking(B)
        (doomed,) = blocking.blocks_for((20,))
        instr = Instrumentation(sink=JsonlSink(path))
        searcher = Searcher(
            LINE, blocking, FirstBlockPolicy(), PARAMS,
            reliability=ReliabilityConfig(injector=LostBlocks([doomed])),
            instrumentation=instr,
        )
        with pytest.raises(BlockReadError):
            searcher.run_path(walk())
        instr.close()
        (run,) = replay_file(path)
        assert run.error is not None and "BlockReadError" in run.error
        assert run.complete  # run_end was still emitted, error attached
        assert "ERROR" in run.describe()
        assert verify_run(run) == []

    def test_ambient_instrumentation_context(self):
        sink = RingBufferSink()
        with use_instrumentation(Instrumentation(sink=sink)):
            assert current_instrumentation() is not None
            make_searcher().run_path(walk(50))
        assert current_instrumentation() is None
        assert any(isinstance(e, RunEndEvent) for e in sink.events)
        # Searchers built outside the context are untouched.
        searcher = make_searcher()
        assert searcher._instr is None

    def test_run_ids_increment_across_runs(self):
        sink = RingBufferSink(capacity=100_000)
        instr = Instrumentation(sink=sink)
        searcher = make_searcher(instrumentation=instr)
        searcher.run_path(walk(50))
        searcher.run_path(walk(50))
        runs = {e.run for e in sink.events}
        assert runs == {0, 1}


# -- replay & diff tooling ----------------------------------------------


class TestReplayTools:
    def events_for(self, n=200):
        sink = RingBufferSink(capacity=100_000)
        instr = Instrumentation(sink=sink)
        trace = make_searcher(instrumentation=instr).run_path(walk(n))
        return list(sink.events), trace

    def test_verify_detects_tampering(self):
        events, _ = self.events_for()
        end = events[-1]
        assert isinstance(end, RunEndEvent)
        tampered = dict(end.trace, faults=end.trace["faults"] + 1)
        events[-1] = RunEndEvent(run=end.run, trace=tampered, error=None)
        (run,) = replay_events(events)
        mismatches = verify_run(run)
        assert mismatches and any("faults" in m for m in mismatches)

    def test_diff_traces_finds_divergence(self):
        _, a = self.events_for(200)
        _, b = self.events_for(210)
        assert diff_traces(a, a) == []
        assert any("steps" in d for d in diff_traces(a, b))

    def test_diff_runs_on_identical_streams(self):
        events, _ = self.events_for()
        left = replay_events(events)
        right = replay_events(events)
        assert diff_runs(left, right) == []

    def test_ascii_renderings(self):
        _, trace = self.events_for()
        strip = fault_timeline(trace, width=30)
        assert len(strip.splitlines()[-1]) == 32  # |...| frame
        assert "gap" in gap_histogram_ascii(trace)

    def test_cli_check_passes_on_honest_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        instr = Instrumentation(sink=JsonlSink(path))
        make_searcher(instrumentation=instr).run_path(walk())
        instr.close()
        assert replay_main([str(path), "--check", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "reconstruct exactly" in out

    def test_cli_check_fails_on_a_trace_with_no_run(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert replay_main([str(path), "--check"]) == 1
        assert "nothing to check" in capsys.readouterr().out

    def test_cli_diff_flags_differences(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p, n in ((p1, 200), (p2, 210)):
            instr = Instrumentation(sink=JsonlSink(p))
            make_searcher(instrumentation=instr).run_path(walk(n))
            instr.close()
        assert replay_main([str(p1), "--diff", str(p2)]) == 1
        assert replay_main([str(p1), "--diff", str(p1)]) == 0


def traced_walk(tmp_path):
    """A small trace of one path run."""
    path = tmp_path / "t.jsonl"
    instr = Instrumentation(sink=JsonlSink(path))
    make_searcher(instrumentation=instr).run_path(walk())
    instr.close()
    return path


#: The three trace CLIs, each with the arguments that read one trace.
TRACE_CLIS = (
    (replay_main, lambda path: [str(path), "--check"]),
    (forensics_main, lambda path: [str(path), "--check"]),
    (report_main, lambda path: ["--trace", str(path)]),
)


class TestUndecodableTraces:
    """A line that is not an event fails typed: ``read_jsonl`` raises
    ``ReproError`` naming the file and the 1-based line, and the three
    trace CLIs print that one line to stderr and exit 2."""

    def broken_trace(self, tmp_path, case):
        lines = traced_walk(tmp_path).read_text(encoding="utf-8").splitlines()
        end = "\n"
        if case == "torn-last-line":
            bad = len(lines)
            lines[-1] = lines[-1][:21]  # cut mid-object
        elif case == "torn-append":
            bad = len(lines)
            lines[-1] = lines[-1][:21]  # cut mid-object, with no newline
            end = ""
        elif case == "garbage-middle-line":
            bad = len(lines) // 2
            lines[bad - 1] = "}not json{"
        elif case == "two-objects-one-line":
            bad = len(lines) // 2
            lines[bad - 1] = f"{lines[bad - 1]} {lines[bad - 1]}"
        elif case == "array-line":
            bad = 4
            lines[bad - 1] = "[1, 2]"
        elif case == "nbsp-after-record":
            # ``\xa0`` is whitespace to ``str.strip`` but not to JSON.
            bad = 3
            lines[bad - 1] += "\xa0"
        elif case == "nbsp-only-line":
            bad = 3
            lines.insert(bad - 1, "\xa0")
        elif case == "non-utf8-last-line":
            bad = len(lines)
            # A raw 0xff byte, which no UTF-8 text contains.
            lines[-1] = lines[-1][:20] + "\udcff" + lines[-1][20:]
        else:
            bad = 3
            lines[bad - 1] = '{"event":"nope","run":0}'
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(("\n".join(lines) + end).encode("utf-8", "surrogateescape"))
        return broken, bad

    CASES = (
        "torn-last-line", "garbage-middle-line", "unknown-kind",
        "two-objects-one-line", "array-line", "torn-append",
        "non-utf8-last-line", "nbsp-after-record", "nbsp-only-line",
    )

    @pytest.mark.parametrize("case", CASES)
    def test_read_jsonl_names_file_and_line(self, tmp_path, case):
        from repro.errors import ReproError

        path, bad = self.broken_trace(tmp_path, case)
        with pytest.raises(ReproError, match=rf"broken\.jsonl:{bad}: "):
            list(read_jsonl(path))

    @pytest.mark.parametrize("case", CASES)
    def test_clis_exit_2_with_one_line(self, tmp_path, capsys, case):
        path, bad = self.broken_trace(tmp_path, case)
        for main, argv in TRACE_CLIS:
            assert main(argv(path)) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert f"{path}:{bad}: " in captured.err
            assert "Traceback" not in captured.err

    def test_clis_exit_2_on_a_missing_trace(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        diff = (replay_main, lambda path: [str(traced_walk(tmp_path)),
                                           "--diff", str(path)])
        for main, argv in (*TRACE_CLIS, diff):
            assert main(argv(missing)) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert f"cannot read {missing}: " in captured.err

    #: What the reader says about each line that decodes to one JSON
    #: value too many, or to a value that is not an object, and about a
    #: final line cut short with no newline.
    MESSAGES = {
        "two-objects-one-line": r"undecodable JSON \(Extra data at column \d+\)",
        "array-line": r"not a JSON object: \[1, 2\]",
        "torn-append": r"torn final line \(.+ at column \d+\)",
        "non-utf8-last-line": r"undecodable UTF-8 \(invalid start byte at byte 21\)",
        "nbsp-after-record": r"undecodable JSON \(Extra data at column \d+\)",
        "nbsp-only-line": r"undecodable JSON \(Expecting value at column 1\)",
    }

    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_read_jsonl_says_what_is_wrong(self, tmp_path, case):
        from repro.errors import ReproError

        path, bad = self.broken_trace(tmp_path, case)
        with pytest.raises(
            ReproError, match=rf"broken\.jsonl:{bad}: {self.MESSAGES[case]}$"
        ):
            list(read_jsonl(path))

    @pytest.mark.parametrize("case", CASES)
    def test_read_shard_stops_quietly_at_the_bad_line(self, tmp_path, case):
        """A shard decodes its lines as ``read_jsonl`` does, but ends at
        the first undecodable one instead of raising."""
        from repro.obs import read_shard

        path, bad = self.broken_trace(tmp_path, case)
        events, footer = read_shard(path)
        assert footer is None
        assert events == list(read_jsonl(path.with_name("t.jsonl")))[: bad - 1]

    def test_only_a_torn_append_is_its_own_error(self, tmp_path):
        """The reader yields every record before a torn final append,
        then raises ``TornTailError``; a bad final line that ends in a
        newline is an ordinary ``ReproError``."""
        from repro.obs.sinks import TornTailError

        path, bad = self.broken_trace(tmp_path, "torn-append")
        events = []
        with pytest.raises(TornTailError):
            for event in read_jsonl(path):
                events.append(event)
        assert events == list(read_jsonl(path.with_name("t.jsonl")))[: bad - 1]
        path, _ = self.broken_trace(tmp_path, "torn-last-line")
        with pytest.raises(ReproError) as excinfo:
            list(read_jsonl(path))
        assert not isinstance(excinfo.value, TornTailError)


#: Identifiers a trace may repeat: equal in Python (``1 == 1.0 ==
#: True``) but written as three different lines.
_IDS = st.sampled_from([0, 1, 1.0, True, "a", (0, 1), (1, (2, "b"))])

#: The lines a run repeats: a small pool, drawn from with replacement.
_BODY_EVENT = st.one_of(
    st.builds(
        StepEvent,
        run=st.just(0),
        vertex=_IDS,
        blocks=st.one_of(st.none(), st.lists(_IDS, max_size=2).map(tuple)),
    ),
    st.builds(
        BlockReadEvent,
        run=st.just(0),
        block_id=_IDS,
        vertex=_IDS,
        size=st.integers(1, 3),
        occupancy=st.integers(0, 3),
        covered=st.integers(0, 3),
    ),
    st.builds(
        EvictionEvent,
        run=st.just(0),
        block_ids=st.one_of(st.none(), st.lists(_IDS, max_size=2).map(tuple)),
        copies=st.integers(0, 3),
        occupancy=st.integers(0, 3),
    ),
    st.builds(FaultEvent, run=st.just(0), vertex=_IDS, gap=st.integers(0, 2), index=st.integers(1, 2)),
)


@st.composite
def _multi_run_traces(draw):
    """The lines of a trace of several runs, each run drawing its events
    from a pool of a few, so lines repeat within a run; a run may copy
    an earlier run's events under its own id, a ``shard_merged`` record
    may frame the runs, and a footer closes the trace."""
    framed = draw(st.booleans())
    runs = draw(st.integers(1, 4))
    events: list = []
    if framed:
        events.append(
            ShardMergedEvent(
                run=0, cell="c", attempt=1, span="s/0/1", run_base=0,
                runs=runs, events=0, dropped=0,
            )
        )
    bodies: list = []
    for run in range(runs):
        if bodies and draw(st.booleans()):
            body = draw(st.sampled_from(bodies))  # an earlier run, re-run
        else:
            pool = draw(st.lists(_BODY_EVENT, min_size=1, max_size=4))
            body = draw(st.lists(st.sampled_from(pool), max_size=12))
        bodies.append(body)
        events.append(RunStartEvent(run, "path", 2, 4, "weak"))
        events += [dataclasses.replace(e, run=run) for e in body]
        events.append(RunEndEvent(run=run, trace={"steps": len(body)}))
    events.append(TraceFooterEvent(run=-1, events_emitted=len(events)))
    return [event.to_json() for event in events]


class TestMemoizedReader:
    """``read_jsonl`` decodes each run's distinct lines once and yields
    the same event for each repeat of a line; what it yields equals a
    fresh decode of every line, and every reader rule still holds."""

    @settings(max_examples=60, deadline=None)
    @given(lines=_multi_run_traces())
    def test_equals_a_fresh_decode_of_every_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("memo") / "t.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        events = list(read_jsonl(path))
        fresh = [event_from_dict(json.loads(line)) for line in lines]
        assert [e.to_json() for e in events] == [e.to_json() for e in fresh]
        assert [e.to_json() for e in events] == lines
        # A run's repeated lines share one frozen event.
        first: dict[str, object] = {}
        for line, event in zip(lines, events):
            if line.startswith('{"event":"run_start"'):
                first.clear()
            assert first.setdefault(line, event) is event

    def repeated_trace(self, tmp_path):
        """A run whose step and block_read lines repeat, and its lines."""
        events = [RunStartEvent(0, "path", 2, 4, "weak")]
        for _ in range(3):
            events += [
                StepEvent(run=0, vertex=(0, 1), blocks=((0, 0),)),
                BlockReadEvent(run=0, block_id=(0, 0), vertex=(0, 1), size=2,
                               occupancy=2, covered=2),
            ]
        lines = [event.to_json() for event in events]
        return tmp_path / "t.jsonl", lines

    def test_a_bad_line_after_repeats_names_its_own_line(self, tmp_path):
        path, lines = self.repeated_trace(tmp_path)
        lines.append(lines[-1].replace('"size":2', '"size":"big"'))
        lines.append(lines[1])
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ReproError, match=rf"t\.jsonl:{len(lines) - 1}: "):
            list(read_jsonl(path))

    def test_a_final_line_without_newline_is_decoded_anew(self, tmp_path):
        """Stored lines end in their newline, so a final line without one
        never matches them: it goes through the torn-tail rule as before,
        yielded when it decodes and ``TornTailError`` when it does not."""
        from repro.obs.sinks import TornTailError

        path, lines = self.repeated_trace(tmp_path)
        path.write_text("\n".join(lines + [lines[1]]), encoding="utf-8")
        events = list(read_jsonl(path))
        assert [e.to_json() for e in events] == lines + [lines[1]]
        assert events[-1] == events[1] and events[-1] is not events[1]
        path.write_text("\n".join(lines + [lines[1][:-1]]), encoding="utf-8")
        seen = []
        with pytest.raises(TornTailError, match=rf"t\.jsonl:{len(lines) + 1}: "):
            for event in read_jsonl(path):
                seen.append(event)
        assert [e.to_json() for e in seen] == lines

    def test_a_journal_checks_every_repeat(self, tmp_path):
        """A manifest decoder keeps state (a cell record's index is
        checked against the header read before it), so a journal takes
        no memo: a cell record read before the header passes, and the
        same line after the header must still fail."""
        from repro.obs.sinks import manifest_decoder, read_journal

        cell = '{"record":"cell","index":5,"status":"done"}'
        header = '{"record":"campaign","cells":[{"name":"a"}]}'
        path = tmp_path / "m.jsonl"
        path.write_text(f"{cell}\n{header}\n{cell}\n", encoding="utf-8")
        with pytest.raises(
            ReproError, match=r"m\.jsonl:3: cell record index 5 names no cell"
        ):
            read_journal(path, manifest_decoder("name"), ReproError)


class TestOrphanEvents:
    """The one fold's orphan rule: an engine event before its run's
    ``run_start``, or a second ``run_start`` for one run, makes every
    trace CLI exit 2 with one line naming the run."""

    #: Each case: the kind of line put in front of a one-run trace, and
    #: what the error says.
    CASES = {
        "orphan-step": ("step", "event for run 0 before its run_start"),
        "duplicate-run-start": ("run_start", "duplicate run_start for run 0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clis_exit_2_naming_the_run(self, tmp_path, capsys, case):
        kind, says = self.CASES[case]
        lines = traced_walk(tmp_path).read_text(encoding="utf-8").splitlines()
        first = next(line for line in lines if json.loads(line)["event"] == kind)
        lines = [first, *lines]
        path = tmp_path / "orphan.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReproError, match=says):
            replay_file(path)
        for main, argv in TRACE_CLIS:
            assert main(argv(path)) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert says in captured.err
            assert "Traceback" not in captured.err


class TestMalformedFields:
    """A value no event could have written is a typed error: an
    identifier holding a JSON object, a ``blocks`` that is neither null
    nor an array, a ``trace`` that is not an object, or a scalar field
    holding another type than its annotation's (a bool is no number)
    fails at its ``path:line``, and a run id that is not an integer
    fails naming the run. Every trace CLI prints one line and exits 2."""

    #: Each case: the kind of line changed, the fields it takes, whether
    #: the changed line is added after the trace instead of replacing
    #: the first line of that kind, and what the error says.
    CASES = {
        "object-block-id": (
            "block_read", {"block_id": {"x": 1}}, False,
            "block_read event field 'block_id' holds a JSON object",
        ),
        "object-in-blocks": (
            "step", {"blocks": [1, [2, {"x": 1}]]}, False,
            "step event field 'blocks' holds a JSON object",
        ),
        "array-trace": (
            "run_end", {"trace": [1, 2]}, False,
            "run_end event field 'trace' is not a JSON object",
        ),
        "string-run-id": (
            "run_start", {"run": "zero"}, True,
            "run_start for run 'zero': not an integer run id",
        ),
        "string-gap": (
            "fault", {"gap": "x"}, False,
            "fault event field 'gap' is not int: \"x\"",
        ),
        "string-size": (
            "block_read", {"size": "big"}, False,
            "block_read event field 'size' is not int: \"big\"",
        ),
        "bool-read-cost": (
            "run_start", {"read_cost": True}, False,
            "run_start event field 'read_cost' is not float | None: true",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clis_exit_2_with_one_line(self, tmp_path, capsys, case):
        kind, fields, added, says = self.CASES[case]
        lines = traced_walk(tmp_path).read_text(encoding="utf-8").splitlines()
        index = next(
            i for i, line in enumerate(lines) if json.loads(line)["event"] == kind
        )
        changed = json.dumps({**json.loads(lines[index]), **fields})
        if added:
            lines.append(changed)
        else:
            lines[index] = changed
        path = tmp_path / "malformed.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = "" if added else f"{path}:{index + 1}: "
        with pytest.raises(ReproError, match=f"^{re.escape(where + says)}"):
            replay_file(path)
        for main, argv in TRACE_CLIS:
            assert main(argv(path)) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert f"error: {where}{says}" in captured.err
            assert "Traceback" not in captured.err

    def test_a_record_that_joins_no_run_has_an_integer_run(self, tmp_path, capsys):
        """The fold checks an engine event's run id; a ``shard_merged``
        joins no run, so the decoder checks its ``run`` (a string one
        used to crash the ops report's sort)."""
        lines = traced_walk(tmp_path).read_text(encoding="utf-8").splitlines()
        shard = ShardMergedEvent(
            run=0, cell="c", attempt=1, span="s/0/1", run_base=0, runs=1,
            events=len(lines), dropped=0,
        )
        path = tmp_path / "malformed.jsonl"
        header = json.dumps({**shard.to_dict(), "run": "x"})
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        says = f"{path}:1: shard_merged event field 'run' is not int: \"x\""
        for main, argv in TRACE_CLIS:
            assert main(argv(path)) == 2
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1
            assert f"error: {says}" in captured.err


class TestTraceClisRunOnce:
    def test_python_m_runs_without_a_runpy_warning(self, tmp_path):
        """``python -m repro.obs.replay`` and ``… forensics`` execute
        their module once: ``repro.obs`` does not import them, so runpy
        finds no copy in ``sys.modules`` to warn about."""
        path = traced_walk(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        for module in ("repro.obs.replay", "repro.obs.forensics"):
            result = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                 str(path), "--check"],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            assert "RuntimeWarning" not in result.stderr


# -- covered_count ------------------------------------------------------


class TestCoveredCount:
    def block(self, bid, lo, hi):
        return Block(bid, frozenset((i,) for i in range(lo, hi)))

    def test_weak_memory_incremental_count(self):
        memory = WeakMemory(ModelParams(8, 32))
        memory.load(self.block("a", 0, 8))
        memory.load(self.block("b", 4, 12))  # overlaps a on 4..7
        assert memory.covered_count == len(memory.covered_vertices()) == 12
        memory.evict_block("a")
        assert memory.covered_count == len(memory.covered_vertices()) == 8
        memory.evict_block("b")
        assert memory.covered_count == len(memory.covered_vertices()) == 0

    def test_strong_memory_incremental_count(self):
        memory = StrongMemory(
            ModelParams(8, 32, paging_model=PagingModel.STRONG)
        )
        memory.load(self.block("a", 0, 8))
        memory.load(self.block("b", 4, 12))
        assert memory.covered_count == len(memory.covered_vertices()) == 12
        memory.evict_oldest(8)  # drops all of a's copies
        assert memory.covered_count == len(memory.covered_vertices())
        memory.evict_all()
        assert memory.covered_count == 0

    def test_memory_view_exposes_the_incremental_count(self):
        from repro.core.engine import MemoryView

        memory = WeakMemory(ModelParams(8, 32))
        view = MemoryView(memory, SearchTrace())
        memory.load(self.block("a", 0, 8))
        assert view.covered_count == 8 == len(memory.covered_vertices())


# -- progress and bench rollups -----------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestProfiling:
    def test_sweep_progress_lines(self):
        clock = FakeClock()
        lines = []
        progress = SweepProgress(emit=lines.append, clock=clock)
        clock.t = 10.0
        progress(1, 4, "tree")
        progress(4, 4, "ballcover")
        assert lines[0] == "[1/4] tree  elapsed 10.0s  eta 30.0s"
        assert lines[1].endswith("eta done")

    def test_bench_rollup_and_write(self, tmp_path):
        class Stats:
            rounds, min, mean, max = 2, 0.5, 0.6, 0.7

        class Meta:
            name = "test_demo"
            fullname = "benchmarks/bench_demo.py::test_demo"
            stats = Stats()
            extra_info = {"rows": [{"sigma": 8.0}]}

        payload = bench_rollup("demo", [Meta()])
        assert payload["tests"] == 1
        assert payload["total_s"] == pytest.approx(1.2)
        (timing,) = payload["timings"]
        assert timing["mean_s"] == pytest.approx(0.6)
        assert timing["counters"]["rows"][0]["sigma"] == 8.0
        out = write_bench_json("demo", payload, root=tmp_path)
        assert out == tmp_path / "BENCH_demo.json"
        assert json.loads(out.read_text())["bench"] == "demo"
